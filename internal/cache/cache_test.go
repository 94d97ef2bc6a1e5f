package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
)

func key(task, arg string) Key {
	return NewKey(task, []relation.Value{relation.NewString(arg)})
}

func bools(bs ...bool) Answers {
	vs := make([]relation.Value, len(bs))
	for i, b := range bs {
		vs[i] = relation.NewBool(b)
	}
	return EncodeAnswers(vs)
}

func TestNewKeyCanonical(t *testing.T) {
	a := NewKey("findCEO", []relation.Value{relation.NewString("Acme")})
	b := NewKey("findCEO", []relation.Value{relation.NewString("Acme")})
	if a != b {
		t.Fatal("identical invocations must share a key")
	}
	c := NewKey("findCEO", []relation.Value{relation.NewString("Globex")})
	if a == c {
		t.Fatal("different args must differ")
	}
	d := NewKey("findCFO", []relation.Value{relation.NewString("Acme")})
	if a == d {
		t.Fatal("different tasks must differ")
	}
	// Multi-arg boundaries must not collide.
	e := NewKey("t", []relation.Value{relation.NewString("ab"), relation.NewString("c")})
	f := NewKey("t", []relation.Value{relation.NewString("a"), relation.NewString("bc")})
	if e == f {
		t.Fatal("argument boundaries collided")
	}
}

func TestGetPut(t *testing.T) {
	c := New()
	k := key("findCEO", "Acme")
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, EncodeAnswers([]relation.Value{relation.NewString("Ada")}))
	e, ok := c.Get(k)
	if !ok || len(e.Answers) != 1 || e.Answers[0].Str() != "Ada" {
		t.Fatalf("get = %v ok=%v", e, ok)
	}
	// Put overwrites the whole list.
	c.Put(k, EncodeAnswers([]relation.Value{relation.NewString("Ada"), relation.NewString("Ida")}))
	e, _ = c.Get(k)
	if len(e.Answers) != 2 || e.Answers[1].Str() != "Ida" {
		t.Fatalf("overwrite: %v", e.Answers)
	}
	// Another task with the same arguments is another entry.
	k2 := key("findCFO", "Acme")
	c.Put(k2, EncodeAnswers([]relation.Value{relation.NewString("Grace")}))
	if e, ok := c.Get(k2); !ok || len(e.Answers) != 1 || e.Answers[0].Str() != "Grace" {
		t.Fatalf("second task = %v ok=%v", e, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// An empty list is a present entry with no answers.
	k3 := key("findCEO", "Initech")
	c.Put(k3, EncodeAnswers(nil))
	if e, ok := c.Get(k3); !ok || e.Answers != nil {
		t.Fatalf("empty entry = %v ok=%v", e, ok)
	}
	if c.Contains(k3) || !c.Contains(k) || c.Contains(key("findCEO", "nope")) {
		t.Fatal("Contains must report only non-empty entries")
	}
}

func TestPutCopiesAnswers(t *testing.T) {
	c := New()
	answers := []relation.Value{relation.NewString("x")}
	c.Put(key("t", "a"), EncodeAnswers(answers))
	answers[0] = relation.NewString("mutated")
	e, _ := c.Get(key("t", "a"))
	if e.Answers[0].Str() != "x" {
		t.Fatal("Put must keep its own copy of the answers")
	}
}

func TestGetExportReturnCopies(t *testing.T) {
	c := New()
	k := key("isCat", "a.png")
	c.Put(k, bools(true, true))

	// Overwriting an element of the returned slice must not reach the
	// cached entry, and neither must appending to it.
	e, _ := c.Get(k)
	e.Answers[0] = relation.NewBool(false)
	_ = append(e.Answers, relation.NewString("caller junk"))
	got, _ := c.Get(k)
	if len(got.Answers) != 2 || !got.Answers[0].Truthy() || !got.Answers[1].Truthy() {
		t.Fatalf("mutating Get's slice corrupted the cached answers: %v", got.Answers)
	}

	// Export decodes fresh slices too: dumping the cache while HITs
	// finalize concurrently must not hand out the live entries.
	exp := c.Export()
	exp[0].Answers[1] = relation.Null
	if got, _ := c.Get(k); got.Answers[1].IsNull() {
		t.Fatal("mutating Export's slice corrupted the cached answers")
	}
}

func TestStatsCounters(t *testing.T) {
	c := New()
	k := key("t", "a")
	c.Get(k) // miss
	// Three assignments' answers behind one key: a single lookup hit
	// serves all three would-be paid answers.
	c.Put(k, bools(true, true, false))
	c.Get(k)                  // hit: 3 answers served
	c.Get(k)                  // hit: 3 more
	c.Contains(k)             // probe: not counted
	c.Contains(key("t", "z")) // probe miss: not counted
	c.Export()                // not counted
	c.Put(k, bools(true, true, false))
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.SavedQuestions != 6 {
		t.Fatalf("SavedQuestions = %d; want answers served (2 hits × 3 answers), not lookups", s.SavedQuestions)
	}
}

func TestExportSortedCopies(t *testing.T) {
	c := New()
	c.Put(key("findCEO", "Acme"), EncodeAnswers([]relation.Value{
		relation.NewTuple(relation.Field{Name: "CEO", Value: relation.NewString("Ada")}),
	}))
	c.Put(key("isCat", "x.png"), bools(true))
	c.Put(key("findCEO", "Globex"), EncodeAnswers([]relation.Value{relation.NewString("Grace")}))
	exp := c.Export()
	if len(exp) != 3 {
		t.Fatalf("exported %d entries", len(exp))
	}
	for i := 1; i < len(exp); i++ {
		prev, cur := exp[i-1].Key, exp[i].Key
		if prev.Task > cur.Task || (prev.Task == cur.Task && prev.Args >= cur.Args) {
			t.Fatalf("export not sorted: %v before %v", prev, cur)
		}
	}
	if f := exp[0].Answers[0].Field("CEO"); f.Str() != "Ada" {
		t.Fatalf("first export = %v", exp[0].Answers)
	}
	// Mutating the export must not reach the cache.
	exp[0].Answers[0] = relation.Null
	if e, _ := c.Get(exp[0].Key); e.Answers[0].IsNull() {
		t.Fatal("Export must copy answer slices")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key("t", string(rune('a'+i%7)))
				switch i % 4 {
				case 0:
					c.Put(k, EncodeAnswers([]relation.Value{relation.NewInt(int64(i))}))
				case 1:
					c.Contains(k)
				case 2:
					c.Export()
				default:
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 7 {
		t.Fatalf("len = %d after concurrent writes, want 7", c.Len())
	}
}

// wireList is the store's cache-entry answer segment, built the way the
// WAL codec writes it: a uvarint count, then each answer's Encode bytes
// behind a uvarint length.
func wireList(vs []relation.Value) string {
	out := binary.AppendUvarint(nil, uint64(len(vs)))
	for _, v := range vs {
		enc := v.Encode(nil)
		out = binary.AppendUvarint(out, uint64(len(enc)))
		out = append(out, enc...)
	}
	return string(out)
}

// checkRoundTrip encodes vs and checks the encoding against the wire
// form, the count, and a decode that is Equal to vs and re-encodes to
// the same bytes (Equal alone cannot tell −0 from 0, or a NaN from any
// number).
func checkRoundTrip(t *testing.T, vs []relation.Value) {
	t.Helper()
	a := EncodeAnswers(vs)
	if len(vs) == 0 {
		if a != "" || a.Len() != 0 || a.Values() != nil {
			t.Fatalf("empty list encodes to %q (len %d, values %v)", string(a), a.Len(), a.Values())
		}
		return
	}
	if want := wireList(vs); string(a) != want {
		t.Fatalf("encoding %x, the wire form is %x", string(a), want)
	}
	if a.Len() != len(vs) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(vs))
	}
	got := a.Values()
	if len(got) != len(vs) {
		t.Fatalf("decoded %d answers, want %d", len(got), len(vs))
	}
	for i := range vs {
		if !got[i].Equal(vs[i]) {
			t.Fatalf("answer %d decoded to %v, want %v", i, got[i], vs[i])
		}
	}
	if again := EncodeAnswers(got); again != a {
		t.Fatalf("re-encoding gives %x, want %x", string(again), string(a))
	}
}

func TestAnswersRoundTrip(t *testing.T) {
	str, num, flt, b := relation.NewString, relation.NewInt, relation.NewFloat, relation.NewBool
	field := func(name string, v relation.Value) relation.Field { return relation.Field{Name: name, Value: v} }
	nested := relation.NewTuple(
		field("CEO", str("Ada")),
		field("", str("")),
		field("Board", relation.NewList(str("x"), relation.NewList(), relation.NewTuple(field("n", flt(0.5))))),
	)
	for _, tc := range []struct {
		name string
		vs   []relation.Value
	}{
		{"empty list", nil},
		{"bools", []relation.Value{b(true), b(false), b(true)}},
		{"ints", []relation.Value{num(0), num(-1), num(math.MaxInt64), num(math.MinInt64)}},
		{"floats", []relation.Value{flt(4.5), flt(0), flt(math.Copysign(0, -1)), flt(math.NaN()), flt(math.Inf(1)), flt(math.Inf(-1)), flt(math.SmallestNonzeroFloat64), flt(math.MaxFloat64)}},
		{"strings", []relation.Value{str(""), str("Grace"), str("pipes | semis ; colons : 9:"), str("héllo ✓")}},
		{"images and null", []relation.Value{relation.NewImage("a.png"), relation.NewImage(""), relation.Null}},
		{"lists and tuples", []relation.Value{relation.NewList(), relation.NewTuple(), nested, relation.NewList(nested, relation.NewList(b(false)))}},
		{"one answer", []relation.Value{b(true)}},
		{"two-byte length", []relation.Value{str(strings.Repeat("x", 130)), b(true), str(strings.Repeat("y", 200))}},
		{"three-byte length", []relation.Value{b(false), str(strings.Repeat("z", 20000)), num(7)}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRoundTrip(t, tc.vs) })
	}
	many := make([]relation.Value, 300) // the count takes two bytes
	for i := range many {
		many[i] = num(int64(i))
	}
	checkRoundTrip(t, many)
}

// genValues builds an answer list from fuzz input: each answer's first
// byte picks its kind, and the following bytes give its payload.
func genValues(data []byte) []relation.Value {
	var out []relation.Value
	for len(data) > 0 && len(out) < 32 {
		var v relation.Value
		v, data = genValue(data, 0)
		out = append(out, v)
	}
	return out
}

func genValue(data []byte, depth int) (relation.Value, []byte) {
	if len(data) == 0 {
		return relation.Null, nil
	}
	op, data := data[0], data[1:]
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	word := func() uint64 {
		var w [8]byte
		copy(w[:], take(8))
		return binary.LittleEndian.Uint64(w[:])
	}
	size := func() int {
		if b := take(1); len(b) == 1 {
			return int(b[0])
		}
		return 0
	}
	switch op % 8 {
	case 0:
		return relation.Null, data
	case 1:
		return relation.NewString(string(take(size()))), data
	case 2:
		return relation.NewInt(int64(word())), data
	case 3:
		return relation.NewFloat(math.Float64frombits(word())), data
	case 4:
		return relation.NewBool(op&0x80 != 0), data
	case 5:
		return relation.NewImage(string(take(size()))), data
	case 6, 7:
		n := 0
		if depth < 3 {
			n = size() % 4
		}
		elems := make([]relation.Value, n)
		names := make([]relation.Field, n)
		for i := range elems {
			// The index prefix keeps a tuple's field names unique.
			names[i].Name = strconv.Itoa(i) + ":" + string(take(size()%8))
			elems[i], data = genValue(data, depth+1)
			names[i].Value = elems[i]
		}
		if op%8 == 6 {
			return relation.NewList(elems...), data
		}
		return relation.NewTuple(names...), data
	}
	panic("unreachable")
}

// FuzzAnswers round-trips generated answer lists through the encoding:
// the bytes must be the WAL's answer segment, and decoding must give
// Equal values that re-encode to the same bytes.
func FuzzAnswers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0x84, 4})                                                    // bools
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80, 3, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // −0 and a NaN
	f.Add([]byte{1, 0, 5, 3, 'p', 'n', 'g', 0, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{7, 2, 3, 'C', 'E', 'O', 1, 3, 'A', 'd', 'a', 0, 6, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, genValues(data))
	})
}

// TestCacheEntryRetention gates what a cached answer list keeps alive:
// 20,000 entries of three boolean answers each, keyed like the
// engine's image filters, must hold at most 140 bytes of live heap per
// entry (keys, answers and map together). Holding each list as values
// (40 bytes an answer) beside a map keyed by task and arguments held
// 255.
func TestCacheEntryRetention(t *testing.T) {
	const entries, limit = 20000, 140
	answers := []relation.Value{relation.NewBool(true), relation.NewBool(false), relation.NewBool(true)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New()
	for i := range entries {
		k := NewKey("isCat", []relation.Value{relation.NewImage(fmt.Sprintf("photo-%05d.png", i))})
		c.Put(k, EncodeAnswers(answers))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if c.Len() != entries {
		t.Fatalf("len = %d", c.Len())
	}
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / entries
	t.Logf("%.1f B of live heap per entry", perEntry)
	if perEntry > limit {
		t.Fatalf("%.1f B of live heap per entry, over the %d B gate", perEntry, limit)
	}
	runtime.KeepAlive(c)
}

var keySink Key

// TestNewKeyAllocatesOnce: a key encodes its arguments into a stack
// buffer, so a key with one image argument costs its string alone.
func TestNewKeyAllocatesOnce(t *testing.T) {
	args := []relation.Value{relation.NewImage("photos/cat-000123.jpg")}
	if n := testing.AllocsPerRun(100, func() { keySink = NewKey("isCat", args) }); n != 1 {
		t.Fatalf("NewKey allocates %.1f times, want 1", n)
	}
	if want := string(args[0].Encode(nil)); keySink.Args != want {
		t.Fatalf("key args = %q, want %q", keySink.Args, want)
	}
}
