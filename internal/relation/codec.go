package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// MarshalBinary implements encoding.BinaryMarshaler using the canonical
// Encode format, so Values round-trip through gob for cache persistence.
func (v Value) MarshalBinary() ([]byte, error) {
	return v.Encode(nil), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *Value) UnmarshalBinary(data []byte) error {
	got, rest, err := DecodeValue(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("relation: %d trailing bytes after value", len(rest))
	}
	*v = got
	return nil
}

// DecodeValue parses one canonically encoded value from data, returning
// the value and the unconsumed remainder. It is the inverse of Encode
// and accepts exactly what Encode writes — no sign or leading zero on a
// number that Encode would not write, only 't' or 'f' for a bool, tuple
// fields in name order — so a decoded value re-encodes to the bytes it
// consumed. Every count and length comes from the input, so none may
// exceed the bytes left after it: a corrupt count fails the decode
// instead of sizing an allocation.
func DecodeValue(data []byte) (Value, []byte, error) {
	if len(data) == 0 {
		return Null, nil, fmt.Errorf("relation: empty encoding")
	}
	kind := Kind(data[0] - '0')
	rest := data[1:]
	var v Value
	var err error
	switch kind {
	case KindNull:
		v = Null
	case KindString, KindImage:
		var s string
		s, rest, err = decodeLenPrefixed(rest)
		if err != nil {
			return Null, nil, err
		}
		if kind == KindString {
			v = NewString(s)
		} else {
			v = NewImage(s)
		}
	case KindInt:
		var num string
		num, rest = takeUntil(rest, '|')
		i, perr := strconv.ParseInt(num, 10, 64)
		if perr != nil || !canonicalInt(num) {
			return Null, nil, fmt.Errorf("relation: bad int encoding %q", num)
		}
		if len(rest) == 0 {
			return Null, nil, fmt.Errorf("relation: missing terminator")
		}
		return NewInt(i), rest[1:], nil // consume '|'
	case KindFloat:
		var num string
		num, rest = takeUntil(rest, '|')
		f, perr := strconv.ParseFloat(num, 64)
		var buf [32]byte
		if perr != nil || string(strconv.AppendFloat(buf[:0], f, 'g', -1, 64)) != num {
			return Null, nil, fmt.Errorf("relation: bad float encoding %q", num)
		}
		if len(rest) == 0 {
			return Null, nil, fmt.Errorf("relation: missing terminator")
		}
		return NewFloat(f), rest[1:], nil
	case KindBool:
		if len(rest) == 0 {
			return Null, nil, fmt.Errorf("relation: truncated bool")
		}
		if rest[0] != 't' && rest[0] != 'f' {
			return Null, nil, fmt.Errorf("relation: bad bool encoding %q", rest[0])
		}
		v = NewBool(rest[0] == 't')
		rest = rest[1:]
	case KindList:
		var n int
		n, rest, err = decodeCount(rest)
		if err != nil {
			return Null, nil, err
		}
		elems := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			if len(rest) == 0 || rest[0] != ';' {
				return Null, nil, fmt.Errorf("relation: list element %d missing separator", i)
			}
			var e Value
			e, rest, err = DecodeValue(rest[1:])
			if err != nil {
				return Null, nil, err
			}
			elems = append(elems, e)
		}
		v = Value{kind: KindList, ext: &composite{list: elems}}
	case KindTuple:
		var n int
		n, rest, err = decodeCount(rest)
		if err != nil {
			return Null, nil, err
		}
		fields := make([]Field, 0, n)
		for i := 0; i < n; i++ {
			if len(rest) == 0 || rest[0] != ';' {
				return Null, nil, fmt.Errorf("relation: tuple field %d missing separator", i)
			}
			var name string
			name, rest, err = decodeLenPrefixed(rest[1:])
			if err != nil {
				return Null, nil, err
			}
			if i > 0 && name < fields[i-1].Name {
				return Null, nil, fmt.Errorf("relation: tuple field %q out of order", name)
			}
			var fv Value
			fv, rest, err = DecodeValue(rest)
			if err != nil {
				return Null, nil, err
			}
			fields = append(fields, Field{Name: name, Value: fv})
		}
		// Encode writes NewTuple's name order, which the check above
		// holds the input to; fields sharing a name keep theirs.
		v = Value{kind: KindTuple, ext: &composite{fields: fields}}
	default:
		return Null, nil, fmt.Errorf("relation: bad kind byte %q", data[0])
	}
	if len(rest) == 0 || rest[0] != '|' {
		return Null, nil, fmt.Errorf("relation: missing terminator")
	}
	return v, rest[1:], nil
}

// decodeLenPrefixed parses "len:bytes".
func decodeLenPrefixed(data []byte) (string, []byte, error) {
	n, rest, err := decodeCount(data)
	if err != nil {
		return "", nil, err
	}
	if len(rest) == 0 || rest[0] != ':' {
		return "", nil, fmt.Errorf("relation: missing length separator")
	}
	rest = rest[1:]
	if len(rest) < n {
		return "", nil, fmt.Errorf("relation: truncated string payload")
	}
	return string(rest[:n]), rest[n:], nil
}

// decodeCount parses the decimal count or length that starts data:
// digits only, without a leading zero, and no larger than the bytes
// left after it (every counted element or byte takes at least one).
func decodeCount(data []byte) (int, []byte, error) {
	i, n := 0, 0
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		n = n*10 + int(data[i]-'0')
		i++
		if n > len(data)-i {
			return 0, nil, fmt.Errorf("relation: count %q exceeds the bytes left", string(data[:i]))
		}
	}
	if i == 0 {
		return 0, nil, fmt.Errorf("relation: missing count")
	}
	if i > 1 && data[0] == '0' {
		return 0, nil, fmt.Errorf("relation: count %q has a leading zero", string(data[:i]))
	}
	return n, data[i:], nil
}

// canonicalInt reports whether num is an integer as strconv.FormatInt
// writes it: an optional '-', then digits without a leading zero, and
// never "-0".
func canonicalInt(num string) bool {
	digits := strings.TrimPrefix(num, "-")
	if digits == "" || (digits[0] == '0' && len(num) > 1) {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
}

// takeUntil splits data at the first occurrence of sep, returning the
// prefix as a string and the remainder starting at sep (or empty).
func takeUntil(data []byte, sep byte) (string, []byte) {
	for i := 0; i < len(data); i++ {
		if data[i] == sep {
			return string(data[:i]), data[i:]
		}
	}
	return string(data), nil
}
