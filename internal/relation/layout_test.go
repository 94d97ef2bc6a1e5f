package relation

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// TestValueSize pins the compact layout: a Value is stored in every
// table row, result tuple, cache entry and HIT answer, so its size is
// the engine's per-datum memory cost. Values compare with Equal or
// Compare, never ==, so the type stays non-comparable.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d bytes, want <= 40", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value must not be comparable with ==")
	}
}

// kindTable holds one or more values of every kind, including the float
// and integer edge cases, with what every accessor returns for them.
// The compare and equal matrices below index the same rows.
var kindTable = []struct {
	name    string
	v       Value
	str     string
	i       int64
	f       float64
	b       bool
	listLen int  // len(List()); -1 when List() is nil
	fields  int  // len(Fields()); -1 when Fields() is nil
	truthy  bool // Truthy()
	text    string
	enc     string
}{
	{"null", Null, "", 0, 0, false, -1, -1, false, "NULL", "0|"},
	{"string-empty", NewString(""), "", 0, 0, false, -1, -1, false, "", "10:|"},
	{"string", NewString("héllo|;:"), "héllo|;:", 0, 0, false, -1, -1, true, "héllo|;:", "19:héllo|;:|"},
	{"image", NewImage("x.png"), "x.png", 0, 0, false, -1, -1, true, "img:x.png", "55:x.png|"},
	{"int-zero", NewInt(0), "", 0, 0, false, -1, -1, false, "0", "20|"},
	{"int-neg", NewInt(-7), "", -7, -7, false, -1, -1, true, "-7", "2-7|"},
	{"int-max", NewInt(math.MaxInt64), "", math.MaxInt64, math.MaxInt64, false, -1, -1, true, "9223372036854775807", "29223372036854775807|"},
	{"int-min", NewInt(math.MinInt64), "", math.MinInt64, math.MinInt64, false, -1, -1, true, "-9223372036854775808", "2-9223372036854775808|"},
	{"float-zero", NewFloat(0), "", 0, 0, false, -1, -1, false, "0", "30|"},
	{"float-negzero", NewFloat(math.Copysign(0, -1)), "", 0, math.Copysign(0, -1), false, -1, -1, false, "-0", "3-0|"},
	{"float", NewFloat(2.5), "", 2, 2.5, false, -1, -1, true, "2.5", "32.5|"},
	{"float-int", NewFloat(-7), "", -7, -7, false, -1, -1, true, "-7", "3-7|"},
	{"float-nan", NewFloat(math.NaN()), "", int64(nanVar), math.NaN(), false, -1, -1, true, "NaN", "3NaN|"},
	{"float-inf", NewFloat(math.Inf(1)), "", int64(infVar), math.Inf(1), false, -1, -1, true, "+Inf", "3+Inf|"},
	{"bool-true", NewBool(true), "", 0, 0, true, -1, -1, true, "true", "4t|"},
	{"bool-false", NewBool(false), "", 0, 0, false, -1, -1, false, "false", "4f|"},
	{"list-empty", NewList(), "", 0, 0, false, 0, -1, false, "[]", "60|"},
	{"list-votes", NewList(NewBool(true), NewBool(false), NewBool(true)), "", 0, 0, false, 3, -1, true, "[true, false, true]", "63;4t|;4f|;4t||"},
	{"list-mixed", NewList(NewInt(1), NewString("a")), "", 0, 0, false, 2, -1, true, "[1, a]", "62;21|;11:a||"},
	{"tuple-empty", NewTuple(), "", 0, 0, false, -1, 0, false, "()", "70|"},
	{"tuple", NewTuple(Field{Name: "Phone", Value: NewString("555")}, Field{Name: "CEO", Value: NewString("Ada")}),
		"", 0, 0, false, -1, 2, false, "(CEO: Ada, Phone: 555)", "72;3:CEO13:Ada|;5:Phone13:555||"},
}

// Float-to-int conversion of NaN and ±Inf is platform-defined; Int()
// truncates exactly as a Go conversion does.
var nanVar, infVar = math.NaN(), math.Inf(1)

// compareSigns[i][j] is the sign of kindTable[i].v.Compare(kindTable[j].v)
// as '<', '=' or '>'; equalMatrix[i][j] is 'T' where Equal holds.
var compareSigns = []string{
	"=<<<<<<<<<<<<<<<<<<<<",
	">=<<<<<<<<<<<<<<<<<<<",
	">>=<<<<<<<<<<<<<<<<<<",
	">>>=>>>>>>>>>>>><<<<<",
	">>><=><>==<>=<<<<<<<<",
	">>><<=<><<<==<<<<<<<<",
	">>><>>=>>>>>=<<<<<<<<",
	">>><<<<=<<<<=<<<<<<<<",
	">>><=><>==<>=<<<<<<<<",
	">>><=><>==<>=<<<<<<<<",
	">>><>><>>>=>=<<<<<<<<",
	">>><<=<><<<==<<<<<<<<",
	">>><==========<<<<<<<",
	">>><>>>>>>>>==<<<<<<<",
	">>><>>>>>>>>>>=><<<<<",
	">>><>>>>>>>>>><=<<<<<",
	">>>>>>>>>>>>>>>>=<<<<",
	">>>>>>>>>>>>>>>>>=><<",
	">>>>>>>>>>>>>>>>><=<<",
	">>>>>>>>>>>>>>>>>>>=<",
	">>>>>>>>>>>>>>>>>>>>=",
}

var equalMatrix = []string{
	"T....................",
	".T...................",
	"..T..................",
	"...T.................",
	"....T................",
	".....T...............",
	"......T..............",
	".......T.............",
	"........TT..T........",
	"........TT..T........",
	"..........T.T........",
	"...........TT........",
	"........TTTTTT.......",
	"............TT.......",
	"..............T......",
	"...............T.....",
	"................T....",
	".................T...",
	"..................T..",
	"...................T.",
	"....................T",
}

// TestValueBehaviourPerKind pins what every accessor, Truthy, String,
// Encode, Compare and Equal return for each kind, so the storage layout
// can change without any caller seeing a difference.
func TestValueBehaviourPerKind(t *testing.T) {
	sameFloat := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	lenOrNil := func(n int, isNil bool) int {
		if isNil {
			return -1
		}
		return n
	}
	for _, c := range kindTable {
		v := c.v
		if got := v.Str(); got != c.str {
			t.Errorf("%s: Str() = %q, want %q", c.name, got, c.str)
		}
		if got := v.Int(); got != c.i {
			t.Errorf("%s: Int() = %d, want %d", c.name, got, c.i)
		}
		if got := v.Float(); !sameFloat(got, c.f) {
			t.Errorf("%s: Float() = %v, want %v", c.name, got, c.f)
		}
		if got := v.Bool(); got != c.b {
			t.Errorf("%s: Bool() = %v, want %v", c.name, got, c.b)
		}
		if got := lenOrNil(len(v.List()), v.List() == nil); got != c.listLen {
			t.Errorf("%s: List() length = %d, want %d (-1 = nil)", c.name, got, c.listLen)
		}
		if got, want := v.Len(), max(c.listLen, 0); got != want {
			t.Errorf("%s: Len() = %d, want %d", c.name, got, want)
		}
		if got := lenOrNil(len(v.Fields()), v.Fields() == nil); got != c.fields {
			t.Errorf("%s: Fields() length = %d, want %d (-1 = nil)", c.name, got, c.fields)
		}
		if got := v.Truthy(); got != c.truthy {
			t.Errorf("%s: Truthy() = %v, want %v", c.name, got, c.truthy)
		}
		if got := v.String(); got != c.text {
			t.Errorf("%s: String() = %q, want %q", c.name, got, c.text)
		}
		if got := string(v.Encode(nil)); got != c.enc {
			t.Errorf("%s: Encode = %q, want %q", c.name, got, c.enc)
		}
		if got := v.EncodeKey(); got != c.enc {
			t.Errorf("%s: EncodeKey = %q, want %q", c.name, got, c.enc)
		}
		dec, rest, err := DecodeValue(v.Encode(nil))
		if err != nil || len(rest) != 0 || string(dec.Encode(nil)) != c.enc {
			t.Errorf("%s: DecodeValue round trip = %v, rest %q, err %v", c.name, dec, rest, err)
		}
		if c.fields < 0 && !v.Field("CEO").IsNull() {
			t.Errorf("%s: Field(CEO) = %v, want NULL", c.name, v.Field("CEO"))
		}
	}
	for i, a := range kindTable {
		for j, b := range kindTable {
			if got, want := "<=>"[sign(a.v.Compare(b.v))+1], compareSigns[i][j]; got != want {
				t.Errorf("sign(%s.Compare(%s)) = %c, want %c", a.name, b.name, got, want)
			}
			if got, want := a.v.Equal(b.v), equalMatrix[i][j] == 'T'; got != want {
				t.Errorf("%s.Equal(%s) = %v, want %v", a.name, b.name, got, want)
			}
		}
	}
}

// TestCompareCollectionMagnitude pins that lists and tuples of unequal
// length compare by length difference, not just its sign.
func TestCompareCollectionMagnitude(t *testing.T) {
	empty, three := NewList(), NewList(NewBool(true), NewBool(false), NewBool(true))
	if got := empty.Compare(three); got != -3 {
		t.Errorf("[] vs 3-list = %d, want -3", got)
	}
	if got := three.Compare(empty); got != 3 {
		t.Errorf("3-list vs [] = %d, want 3", got)
	}
	pair := NewTuple(Field{Name: "a", Value: NewInt(1)}, Field{Name: "b", Value: NewInt(2)})
	if got := NewTuple().Compare(pair); got != -2 {
		t.Errorf("() vs 2-tuple = %d, want -2", got)
	}
}
