// Package model defines the data model shared by every layer of the
// InsightNotes+ engine: relational values, schemas and tuples, raw
// annotations, and the summary-object algebra (projection and merge
// semantics) that the paper's query operators are built on.
package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the primitive value types supported by the engine.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed relational value. The zero Value is NULL.
// Values are immutable; only the field of its Kind is meaningful (and only
// that field is stored, see appendValue).
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Text  string
	Bool  bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewInt returns an INT value.
func NewInt(i int64) Value { return Value{Kind: KindInt, Int: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// NewText returns a TEXT value.
func NewText(s string) Value { return Value{Kind: KindText, Text: s} }

// NewBool returns a BOOL value.
func NewBool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat returns the numeric content of v widened to float64.
// It is only meaningful for INT and FLOAT values.
func (v Value) AsFloat() float64 {
	if v.Kind == KindInt {
		return float64(v.Int)
	}
	return v.Float
}

// AsInt returns the numeric content of v narrowed to int64.
func (v Value) AsInt() int64 {
	if v.Kind == KindFloat {
		return int64(v.Float)
	}
	return v.Int
}

// IsNumeric reports whether v is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Truth reports the boolean interpretation of v: BOOL values report their
// content, NULL is false, numbers are true when non-zero, and text when
// non-empty. This mirrors the permissive predicate semantics of the
// prototype's expression language.
func (v Value) Truth() bool {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindInt:
		return v.Int != 0
	case KindFloat:
		return v.Float != 0
	case KindText:
		return v.Text != ""
	default:
		return false
	}
}

// Compare orders v relative to o, returning -1, 0, or +1. NULL sorts before
// every other value. Numeric kinds compare by numeric value across INT and
// FLOAT. Comparing incomparable kinds (e.g. TEXT vs INT) returns an error.
func (v Value) Compare(o Value) (int, error) {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0, nil
		case v.Kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind != o.Kind {
		return 0, fmt.Errorf("model: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindText:
		return strings.Compare(v.Text, o.Text), nil
	case KindBool:
		switch {
		case v.Bool == o.Bool:
			return 0, nil
		case !v.Bool:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return 0, fmt.Errorf("model: cannot compare values of kind %s", v.Kind)
}

// Equal reports whether v and o compare equal. Incomparable kinds are
// unequal rather than erroneous, which matches SQL equality joins over
// heterogeneous columns.
func (v Value) Equal(o Value) bool {
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// String renders v for display and for deterministic test fixtures.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindText:
		return v.Text
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("Value(kind=%d)", uint8(v.Kind))
	}
}

// SQLLiteral renders v as a literal the front-end parser would accept,
// quoting text values.
func (v Value) SQLLiteral() string {
	if v.Kind == KindText {
		return "'" + strings.ReplaceAll(v.Text, "'", "''") + "'"
	}
	return v.String()
}

// SortKey returns v's equality key as a string (see AppendSortKey).
func (v Value) SortKey() string { return string(v.AppendSortKey(make([]byte, 0, 64))) }

// AppendSortKey appends v's equality key to dst: values Compare calls
// equal get equal keys and unequal values different ones (INT against
// FLOAT only within ±2^53, where Compare's widening to float64 is exact).
// GROUP BY, DISTINCT, the hash join and every B-Tree over values or OIDs
// name a value by it. An INT is 'i' and its value offset into the
// non-negative range in 20 decimal digits, which orders INTs (the OID
// indexes rely on it); an integral FLOAT in int64 range takes its INT's
// key (so -0 is 0), and any other FLOAT is 'f' and its IEEE bits, which
// order nothing.
func (v Value) AppendSortKey(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 0)
	case KindInt:
		return appendIntKey(dst, v.Int)
	case KindFloat:
		if f := v.Float; f == math.Trunc(f) && f >= -1<<63 && f < 1<<63 {
			return appendIntKey(dst, int64(f))
		}
		return binary.BigEndian.AppendUint64(append(dst, 'f'), math.Float64bits(v.Float))
	case KindText:
		return append(append(dst, 't'), v.Text...)
	case KindBool:
		if v.Bool {
			return append(dst, "b1"...)
		}
		return append(dst, "b0"...)
	}
	return dst
}

// appendIntKey appends the bytes of fmt's "i%020d" of i offset by 2^63,
// without fmt (paid per summary fetch and key).
func appendIntKey(dst []byte, i int64) []byte {
	dst = append(dst, "i00000000000000000000"...)
	u := uint64(i) + 1<<63
	for j := len(dst) - 1; u > 0; j-- {
		dst[j] = byte('0' + u%10)
		u /= 10
	}
	return dst
}

// OIDKey is the key of an OID in the OID-keyed B-Trees. It is small
// enough to inline, so a lookup whose tree does not keep the key builds
// it on the caller's stack.
func OIDKey(oid int64) string {
	var b [21]byte
	return string(appendIntKey(b[:0], oid))
}
