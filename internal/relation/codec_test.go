package relation

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecodeRoundTripBasics(t *testing.T) {
	values := []Value{
		Null,
		NewString(""),
		NewString("hello world"),
		NewString("with|pipe;and:colon"),
		NewImage("x.png"),
		NewInt(0),
		NewInt(-12345),
		NewFloat(2.5),
		NewFloat(-1e-7),
		NewBool(true),
		NewBool(false),
		NewList(),
		NewList(NewInt(1), NewString("a"), NewBool(false)),
		NewList(NewList(NewInt(1)), NewList()),
		NewTuple(),
		NewTuple(Field{"CEO", NewString("Ada")}, Field{"Phone", NewString("555")}),
		NewTuple(Field{"nested", NewTuple(Field{"x", NewInt(1)})}),
	}
	for _, v := range values {
		enc := v.Encode(nil)
		got, rest, err := DecodeValue(enc)
		if err != nil {
			t.Errorf("decode %v: %v", v, err)
			continue
		}
		if len(rest) != 0 {
			t.Errorf("decode %v: %d trailing bytes", v, len(rest))
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeSequence(t *testing.T) {
	var buf []byte
	buf = NewInt(7).Encode(buf)
	buf = NewString("x").Encode(buf)
	a, rest, err := DecodeValue(buf)
	if err != nil || a.Int() != 7 {
		t.Fatalf("first = %v err=%v", a, err)
	}
	b, rest, err := DecodeValue(rest)
	if err != nil || b.Str() != "x" || len(rest) != 0 {
		t.Fatalf("second = %v err=%v rest=%d", b, err, len(rest))
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("9"),        // bad kind
		[]byte("2xx|"),     // bad int
		[]byte("3zz|"),     // bad float
		[]byte("4"),        // truncated bool
		[]byte("15:ab|"),   // truncated string payload
		[]byte("1x:ab|"),   // bad length
		[]byte("62"),       // list count, truncated
		[]byte("62;11:a|"), // list missing second element
		[]byte("1"),        // missing length separator entirely
		[]byte("20"),       // int missing terminator... actually takeUntil returns all, rest empty -> index panic? check
	}
	for i, enc := range bad {
		if _, _, err := decodeSafe(enc); err == nil {
			t.Errorf("case %d (%q): expected error", i, enc)
		}
	}
}

// decodeSafe guards against panics so the test reports them as errors.
func decodeSafe(enc []byte) (v Value, rest []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Error{}
		}
	}()
	return DecodeValue(enc)
}

// Error is a trivial error used by decodeSafe.
type Error struct{}

func (*Error) Error() string { return "panic" }

func TestGobRoundTrip(t *testing.T) {
	v := NewTuple(
		Field{"CEO", NewString("Ada")},
		Field{"Scores", NewList(NewInt(1), NewFloat(2.5))},
	)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	var got Value
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("gob round trip: %v != %v", got, v)
	}
}

// Property: every randomly generated value round-trips.
func TestDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		v := randomValue(rand.New(rand.NewSource(seed)), 4)
		got, rest, err := DecodeValue(v.Encode(nil))
		return err == nil && len(rest) == 0 && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRejectsOversizedCounts: a list's or tuple's count, or a
// string's length, comes from the input, so one larger than the bytes
// left fails the decode instead of sizing a slice from it.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	bad := []string{
		"61000000000000000|",         // list: makeslice cap out of range
		"71000000000000000|",         // tuple
		"6999999999999999999999999|", // list count past int64
		"62;11:a|",                   // list count 2 > bytes after it
		"7100000;1:a11:b|",           // tuple count > bytes left
		"11000000000000000000:abc|",  // string length past int64
		"710;1:a11:b||",              // tuple count 10, one field present
	}
	for _, enc := range bad {
		if _, _, err := decodeSafe([]byte(enc)); err == nil {
			t.Errorf("%q: expected an error", enc)
		} else if _, ok := err.(*Error); ok {
			t.Errorf("%q: decode panicked", enc)
		}
	}
}

// TestDecodeRejectsNonCanonical: DecodeValue accepts only what Encode
// writes, so every accepted value re-encodes to the bytes it consumed.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	bad := []string{
		"2+5|", "205|", "2-0|", "2-05|", "2|", // ints
		"31e5|", "30x1p-2|", "3nan|", "3+1|", "31.50|", // floats
		"4x|", "4T|", // bools
		"103:abc|", "1+3:abc|", // string lengths
		"602|", "7+0|", // counts
	}
	for _, enc := range bad {
		if v, _, err := decodeSafe([]byte(enc)); err == nil {
			t.Errorf("%q: decoded to %v, which encodes as %q", enc, v, v.Encode(nil))
		}
	}
	for _, v := range []Value{NewInt(-7), NewInt(0), NewFloat(1e21), NewFloat(-0.0), NewFloat(1e-300)} {
		enc := v.Encode(nil)
		if got, rest, err := DecodeValue(enc); err != nil || len(rest) != 0 || !got.Equal(v) {
			t.Errorf("%q: decode = %v, %q, %v", enc, got, rest, err)
		}
	}
}

// FuzzDecodeValue: no input makes DecodeValue panic, and a value it
// accepts re-encodes to exactly the bytes it consumed.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range []Value{
		Null, NewString("a|b;c:d"), NewImage("x.png"), NewInt(-12), NewFloat(2.5),
		NewBool(true), NewList(NewInt(1), NewList()),
		NewTuple(Field{"CEO", NewString("Ada")}, Field{"n", NewTuple(Field{"x", NewFloat(-0.5)})}),
	} {
		f.Add(v.Encode(nil))
	}
	f.Add([]byte("61000000000000000|"))
	f.Add([]byte("2+5|"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodeValue(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if enc := v.Encode(nil); !bytes.Equal(enc, consumed) {
			t.Fatalf("decoded %q to %v, which encodes as %q", consumed, v, enc)
		}
	})
}

// TestDecodeKeepsInputOnStack: DecodeValue retains nothing of its input
// but what it returns, so a caller's []byte conversion of a short
// encoding stays on the stack — decoding a bool from a string allocates
// nothing. The cache decodes every answer of every hit this way.
func TestDecodeKeepsInputOnStack(t *testing.T) {
	enc := "4t|"
	allocs := testing.AllocsPerRun(100, func() {
		if v, _, err := DecodeValue([]byte(enc)); err != nil || !v.Bool() {
			t.Fatalf("decode %q = %v, %v", enc, v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding %q from a string allocates %.0f times, want 0", enc, allocs)
	}
}
