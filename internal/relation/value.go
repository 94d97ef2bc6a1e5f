// Package relation implements Qurk's storage engine: typed values,
// schemas, tuples, in-memory tables and pollable result tables.
//
// The data model follows the paper's §3: it is relational, except that
// attributes produced by human workers hold a *list* of answers (one per
// assignment) which user-defined aggregates reduce to a single value.
package relation

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the value types Qurk understands.
type Kind int

// Value kinds. KindImage is a reference (identifier/URL) to an image shown
// to workers; the engine never interprets image bytes. KindList holds
// multiple worker answers for one HIT. KindTuple is a nested record, used
// for UDFs such as findCEO that RETURN a tuple.
const (
	KindNull Kind = iota
	KindString
	KindInt
	KindFloat
	KindBool
	KindImage
	KindList
	KindTuple
)

// String returns the type name as written in the TASK language.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "Null"
	case KindString:
		return "String"
	case KindInt:
		return "Int"
	case KindFloat:
		return "Float"
	case KindBool:
		return "Bool"
	case KindImage:
		return "Image"
	case KindList:
		return "List"
	case KindTuple:
		return "Tuple"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a TASK-language type name ("String", "Image[]"...)
// into a Kind. The "[]" suffix maps to KindList.
func ParseKind(s string) (Kind, error) {
	if strings.HasSuffix(s, "[]") {
		return KindList, nil
	}
	switch strings.ToLower(s) {
	case "string", "text":
		return KindString, nil
	case "int", "integer":
		return KindInt, nil
	case "float", "double":
		return KindFloat, nil
	case "bool", "boolean":
		return KindBool, nil
	case "image":
		return KindImage, nil
	case "tuple":
		return KindTuple, nil
	case "null":
		return KindNull, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown type %q", s)
	}
}

// Field is one named component of a tuple-valued Value.
type Field struct {
	Name  string
	Value Value
}

// Value is a dynamically typed datum. The zero Value is NULL.
// Values are immutable once constructed; sharing is safe.
//
// A Value takes 40 bytes: the kind, one scalar word, one string and one
// pointer. The word holds an Int's bits, a Float's IEEE-754 bits or a
// Bool (0 or 1); the string holds a String's or Image's payload; the
// pointer holds a List's elements or a Tuple's fields. Every accessor
// reads only the slot its kind uses, so the zero slots of other kinds
// read as "", 0, false or nil. Values are not comparable with ==; use
// Equal or Compare.
type Value struct {
	_    [0]func() // not comparable with ==
	kind Kind
	word uint64     // KindInt, KindFloat, KindBool
	str  string     // KindString, KindImage
	ext  *composite // KindList, KindTuple
}

// composite is the payload of a List or Tuple value, kept behind a
// pointer so scalar values do not pay for it.
type composite struct {
	list   []Value
	fields []Field // sorted by Name
}

// Null is the NULL value.
var Null = Value{}

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, str: s} }

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, word: uint64(i)} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, word: math.Float64bits(f)} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.word = 1
	}
	return v
}

// NewImage returns an image-reference value.
func NewImage(ref string) Value { return Value{kind: KindImage, str: ref} }

// NewList returns a list value holding the given elements.
// The slice is copied so later mutation by the caller cannot alias.
func NewList(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return Value{kind: KindList, ext: &composite{list: cp}}
}

// NewTuple returns a tuple value with the given fields. Field names must
// be unique; they are stored sorted so encoding is canonical.
func NewTuple(fields ...Field) Value {
	cp := make([]Field, len(fields))
	copy(cp, fields)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Name < cp[j].Name })
	return Value{kind: KindTuple, ext: &composite{fields: cp}}
}

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload of a String or Image value.
func (v Value) Str() string { return v.str }

// Int returns the integer payload; Float values are truncated.
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return int64(v.word)
	case KindFloat:
		return int64(math.Float64frombits(v.word))
	}
	return 0
}

// Float returns the numeric payload as a float64.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.word))
	case KindFloat:
		return math.Float64frombits(v.word)
	}
	return 0
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.kind == KindBool && v.word != 0 }

// List returns the elements of a list value. Callers must not mutate the
// returned slice.
func (v Value) List() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.ext.list
}

// Len returns the number of elements of a list value, or 0.
func (v Value) Len() int { return len(v.List()) }

// Fields returns the components of a tuple value, sorted by name.
// Callers must not mutate the returned slice.
func (v Value) Fields() []Field {
	if v.kind != KindTuple {
		return nil
	}
	return v.ext.fields
}

// Field returns the named component of a tuple value, or NULL.
func (v Value) Field(name string) Value {
	fields := v.Fields()
	i := sort.Search(len(fields), func(i int) bool { return fields[i].Name >= name })
	if i < len(fields) && fields[i].Name == name {
		return fields[i].Value
	}
	return Null
}

// Truthy reports whether the value counts as true in a WHERE clause.
// NULL is false; numbers are true when non-zero; strings when non-empty;
// lists reduce by majority vote over their boolean elements.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.word != 0
	case KindFloat:
		return v.Float() != 0
	case KindString, KindImage:
		return v.str != ""
	case KindList:
		yes := 0
		for _, e := range v.ext.list {
			if e.Truthy() {
				yes++
			}
		}
		return yes*2 > len(v.ext.list)
	default:
		return false
	}
}

// Compare orders two values. NULL sorts first; values of different kinds
// order by kind; numeric kinds compare numerically across Int/Float.
// Lists and tuples compare element-wise. The result is -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	if numeric(v.kind) && numeric(o.kind) {
		a, b := v.Float(), o.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString, KindImage:
		return strings.Compare(v.str, o.str)
	case KindBool:
		switch {
		case v.word == o.word:
			return 0
		case v.word == 0:
			return -1
		default:
			return 1
		}
	case KindList:
		a, b := v.ext.list, o.ext.list
		for i := 0; i < len(a) && i < len(b); i++ {
			if c := a[i].Compare(b[i]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	case KindTuple:
		a, b := v.ext.fields, o.ext.fields
		for i := 0; i < len(a) && i < len(b); i++ {
			if c := strings.Compare(a[i].Name, b[i].Name); c != 0 {
				return c
			}
			if c := a[i].Value.Compare(b[i].Value); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	default:
		return 0
	}
}

// Equal reports whether two values are identical in kind and payload
// (unlike Compare, Int(1) and Float(1.0) are not Equal).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	return v.Compare(o) == 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.str
	case KindImage:
		return "img:" + v.str
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool())
	case KindList:
		parts := make([]string, len(v.ext.list))
		for i, e := range v.ext.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindTuple:
		parts := make([]string, len(v.ext.fields))
		for i, f := range v.ext.fields {
			parts[i] = f.Name + ": " + f.Value.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	default:
		return "?"
	}
}

// Encode appends a canonical, injective byte encoding of the value to dst.
// It is used for task-cache keys and grouping, so two values encode
// equally iff Equal reports true.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte('0'+int(v.kind)))
	switch v.kind {
	case KindString, KindImage:
		dst = strconv.AppendInt(dst, int64(len(v.str)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.str...)
	case KindInt:
		dst = strconv.AppendInt(dst, v.Int(), 10)
	case KindFloat:
		dst = strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case KindBool:
		if v.word != 0 {
			dst = append(dst, 't')
		} else {
			dst = append(dst, 'f')
		}
	case KindList:
		dst = strconv.AppendInt(dst, int64(len(v.ext.list)), 10)
		for _, e := range v.ext.list {
			dst = append(dst, ';')
			dst = e.Encode(dst)
		}
	case KindTuple:
		dst = strconv.AppendInt(dst, int64(len(v.ext.fields)), 10)
		for _, f := range v.ext.fields {
			dst = append(dst, ';')
			dst = strconv.AppendInt(dst, int64(len(f.Name)), 10)
			dst = append(dst, ':')
			dst = append(dst, f.Name...)
			dst = f.Value.Encode(dst)
		}
	}
	dst = append(dst, '|')
	return dst
}

// EncodeKey returns the canonical encoding as a string, suitable as a map
// key.
func (v Value) EncodeKey() string { return string(v.Encode(nil)) }

// ParseValue converts a textual literal into a value of the given kind.
func ParseValue(kind Kind, text string) (Value, error) {
	switch kind {
	case KindNull:
		return Null, nil
	case KindString:
		return NewString(text), nil
	case KindImage:
		return NewImage(text), nil
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Null, fmt.Errorf("relation: parse int %q: %v", text, err)
		}
		return NewInt(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return Null, fmt.Errorf("relation: parse float %q: %v", text, err)
		}
		return NewFloat(f), nil
	case KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(text)))
		if err != nil {
			return Null, fmt.Errorf("relation: parse bool %q: %v", text, err)
		}
		return NewBool(b), nil
	default:
		return Null, fmt.Errorf("relation: cannot parse literal of kind %v", kind)
	}
}
