package relation

import (
	"strings"
	"sync"
	"testing"
)

func twoColSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(Column{"name", KindString}, Column{"age", KindInt})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaDuplicate(t *testing.T) {
	if _, err := NewSchema(Column{"a", KindInt}, Column{"A", KindInt}); err == nil {
		t.Error("duplicate (case-insensitive) columns must error")
	}
}

func TestSchemaLookup(t *testing.T) {
	s := MustSchema(Column{"t.a", KindInt}, Column{"t.b", KindString}, Column{"u.b", KindString})
	if i, ok := s.Lookup("t.a"); !ok || i != 0 {
		t.Errorf("qualified lookup = %d,%v", i, ok)
	}
	if i, ok := s.Lookup("T.A"); !ok || i != 0 {
		t.Errorf("case-insensitive lookup = %d,%v", i, ok)
	}
	if i, ok := s.Lookup("a"); !ok || i != 0 {
		t.Errorf("bare unique lookup = %d,%v", i, ok)
	}
	if _, ok := s.Lookup("b"); ok {
		t.Error("ambiguous bare lookup must fail")
	}
	if _, ok := s.Lookup("zz"); ok {
		t.Error("missing lookup must fail")
	}
}

func TestSchemaQualifyConcat(t *testing.T) {
	s := MustSchema(Column{"a", KindInt}, Column{"b", KindString})
	q := s.Qualify("t")
	if q.Column(0).Name != "t.a" || q.Column(1).Name != "t.b" {
		t.Errorf("Qualify: %v", q)
	}
	// Requalifying replaces the old prefix.
	q2 := q.Qualify("u")
	if q2.Column(0).Name != "u.a" {
		t.Errorf("requalify: %v", q2)
	}
	cat, err := q.Concat(s.Qualify("u"))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 4 {
		t.Errorf("concat len = %d", cat.Len())
	}
	if _, err := q.Concat(q); err == nil {
		t.Error("self-concat must report duplicate columns")
	}
}

func TestTupleBasics(t *testing.T) {
	s := twoColSchema(t)
	tup := MustTuple(s, NewString("ann"), NewInt(30))
	if got := tup.Get("name").Str(); got != "ann" {
		t.Errorf("Get(name) = %q", got)
	}
	if got := tup.Get("AGE").Int(); got != 30 {
		t.Errorf("Get(AGE) = %d", got)
	}
	if !tup.Get("zzz").IsNull() {
		t.Error("missing attribute should be NULL")
	}
	if !tup.Has("name") || tup.Has("zzz") {
		t.Error("Has() wrong")
	}
	if _, err := NewTupleRow(s, NewString("x")); err == nil {
		t.Error("arity mismatch must error")
	}
	str := tup.String()
	if !strings.Contains(str, "name: ann") {
		t.Errorf("String() = %q", str)
	}
}

func TestTupleJoin(t *testing.T) {
	a := MustTuple(MustSchema(Column{"l.x", KindInt}), NewInt(1))
	b := MustTuple(MustSchema(Column{"r.y", KindInt}), NewInt(2))
	j, err := a.Join(b)
	if err != nil {
		t.Fatal(err)
	}
	if j.Get("l.x").Int() != 1 || j.Get("r.y").Int() != 2 {
		t.Errorf("join tuple = %v", j)
	}
}

func TestTableInsertSnapshotPoll(t *testing.T) {
	tab := NewTable("people", twoColSchema(t))
	if tab.Name() != "people" {
		t.Errorf("Name = %q", tab.Name())
	}
	if err := tab.InsertValues(NewString("ann"), NewInt(30)); err != nil {
		t.Fatal(err)
	}
	if err := tab.InsertValues(NewString("bob"), NewInt(40)); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	rows, cur := tab.Poll(0)
	if len(rows) != 2 || cur != 2 {
		t.Fatalf("Poll(0) = %d rows cur=%d", len(rows), cur)
	}
	rows, cur = tab.Poll(cur)
	if len(rows) != 0 || cur != 2 {
		t.Fatalf("Poll(cur) = %d rows cur=%d", len(rows), cur)
	}
	if err := tab.InsertValues(NewString("carol"), NewInt(50)); err != nil {
		t.Fatal(err)
	}
	rows, cur = tab.Poll(cur)
	if len(rows) != 1 || rows[0].Get("name").Str() != "carol" {
		t.Fatalf("incremental poll = %v", rows)
	}
	if cur != 3 {
		t.Fatalf("cursor = %d", cur)
	}
	if tab.Row(1).Get("name").Str() != "bob" {
		t.Error("Row(1) wrong")
	}
}

func TestTableInsertArityErrors(t *testing.T) {
	tab := NewTable("t", twoColSchema(t))
	if err := tab.InsertValues(NewString("x")); err == nil {
		t.Error("short insert must error")
	}
	other := MustSchema(Column{"a", KindInt})
	if err := tab.Insert(MustTuple(other, NewInt(1))); err == nil {
		t.Error("schema arity mismatch must error")
	}
}

func TestTableCloseSemantics(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	if tab.Closed() {
		t.Error("new table must not be closed")
	}
	tab.Close()
	tab.Close() // idempotent
	if !tab.Closed() {
		t.Error("Close did not stick")
	}
	if err := tab.InsertValues(NewString("x"), NewInt(1)); err == nil {
		t.Error("insert into closed table must error")
	}
}

func TestTableWaitWakesOnInsert(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	done := make(chan []Tuple)
	go func() {
		rows, _ := tab.Wait(0)
		done <- rows
	}()
	if err := tab.InsertValues(NewString("ann"), NewInt(1)); err != nil {
		t.Fatal(err)
	}
	rows := <-done
	if len(rows) != 1 {
		t.Fatalf("Wait returned %d rows", len(rows))
	}
}

func TestTableWaitWakesOnClose(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	done := make(chan struct{})
	go func() {
		tab.Wait(0)
		close(done)
	}()
	tab.Close()
	<-done
}

func TestTableWaitClosedCollectsAll(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	var wg sync.WaitGroup
	wg.Add(1)
	var got []Tuple
	go func() {
		defer wg.Done()
		got = tab.WaitClosed()
	}()
	for i := 0; i < 5; i++ {
		if err := tab.InsertValues(NewString("x"), NewInt(int64(i))); err != nil {
			t.Error(err)
		}
	}
	tab.Close()
	wg.Wait()
	if len(got) != 5 {
		t.Fatalf("WaitClosed returned %d rows", len(got))
	}
}

func TestTableConcurrentInserts(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = tab.InsertValues(NewString("w"), NewInt(int64(w*per+i)))
			}
		}(w)
	}
	wg.Wait()
	if tab.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", tab.Len(), workers*per)
	}
	if tab.Version() != int64(workers*per) {
		t.Fatalf("Version = %d", tab.Version())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tab := NewTable("a", twoColSchema(t))
	if err := c.Register(tab); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(NewTable("a", twoColSchema(t))); err == nil {
		t.Error("duplicate register must error")
	}
	got, ok := c.Table("a")
	if !ok || got != tab {
		t.Error("Table lookup failed")
	}
	c.Replace(NewTable("a", twoColSchema(t)))
	got2, _ := c.Table("a")
	if got2 == tab {
		t.Error("Replace did not swap")
	}
	c.Drop("a")
	if _, ok := c.Table("a"); ok {
		t.Error("Drop failed")
	}
	_ = c.Register(NewTable("x", twoColSchema(t)))
	_ = c.Register(NewTable("y", twoColSchema(t)))
	if n := len(c.Names()); n != 2 {
		t.Errorf("Names = %d entries", n)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	_ = tab.InsertValues(NewString("a"), NewInt(1))
	snap := tab.Snapshot()
	_ = tab.InsertValues(NewString("b"), NewInt(2))
	if len(snap) != 1 {
		t.Error("snapshot must not grow with table")
	}
}

// TestRowsIsStableView pins Rows' contract: the view keeps its length
// as the table grows, and appending to it never writes into the table.
func TestRowsIsStableView(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	for _, name := range []string{"a", "b", "c"} {
		_ = tab.InsertValues(NewString(name), NewInt(1))
	}
	rows := tab.Rows()
	_ = tab.InsertValues(NewString("d"), NewInt(4))
	if len(rows) != 3 || rows[2].Values[0].Str() != "c" {
		t.Fatalf("view changed as the table grew: %v", rows)
	}
	_ = append(rows, Tuple{Values: []Value{NewString("x"), NewInt(9)}})
	if got := tab.Row(3).Values[0].Str(); got != "d" {
		t.Fatalf("appending to the view overwrote table row 3 with %q", got)
	}
}

// Release drops a closed table's rows whether it comes before or after
// Close, and the table keeps counting them.
func TestTableReleaseEitherOrder(t *testing.T) {
	for _, releaseFirst := range []bool{false, true} {
		tab := NewTable("r", twoColSchema(t))
		for i := 0; i < 3; i++ {
			if err := tab.InsertValues(NewString("x"), NewInt(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if releaseFirst {
			tab.Release()
			if got := len(tab.Rows()); got != 3 {
				t.Fatalf("release before close dropped rows of an open table: %d left", got)
			}
			if err := tab.InsertValues(NewString("y"), NewInt(3)); err != nil {
				t.Fatal(err)
			}
			tab.Close()
		} else {
			if err := tab.InsertValues(NewString("y"), NewInt(3)); err != nil {
				t.Fatal(err)
			}
			tab.Close()
			tab.Release()
		}
		if got := len(tab.Rows()); got != 0 {
			t.Errorf("releaseFirst=%v: %d rows kept after release", releaseFirst, got)
		}
		if tab.Len() != 4 || tab.Version() != 4 {
			t.Errorf("releaseFirst=%v: Len=%d Version=%d, want 4", releaseFirst, tab.Len(), tab.Version())
		}
		if rows, cursor := tab.Poll(0); len(rows) != 0 || cursor != 4 {
			t.Errorf("releaseFirst=%v: Poll = %d rows, cursor %d", releaseFirst, len(rows), cursor)
		}
		if rows, _ := tab.Wait(1); len(rows) != 0 {
			t.Errorf("releaseFirst=%v: Wait returned %d rows", releaseFirst, len(rows))
		}
	}
}

// Release racing Close and a Wait-ing reader: the rows are dropped
// exactly once both have run, whichever wins.
func TestTableReleaseRacesClose(t *testing.T) {
	tab := NewTable("r", twoColSchema(t))
	if err := tab.InsertValues(NewString("x"), NewInt(1)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); tab.Release() }()
	go func() { defer wg.Done(); tab.Close() }()
	go func() {
		defer wg.Done()
		for {
			if _, cursor := tab.Wait(1); cursor >= 1 && tab.Closed() {
				return
			}
		}
	}()
	wg.Wait()
	if got := len(tab.Rows()); got != 0 || tab.Len() != 1 {
		t.Fatalf("after Release and Close: %d rows kept, Len %d", got, tab.Len())
	}
}
