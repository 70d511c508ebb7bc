package model

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INT", KindFloat: "FLOAT",
		KindText: "TEXT", KindBool: "BOOL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindFromName(t *testing.T) {
	for name, want := range map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "BigInt": KindInt,
		"float": KindFloat, "DOUBLE": KindFloat, "real": KindFloat,
		"text": KindText, "VARCHAR": KindText, "string": KindText,
		"bool": KindBool, "BOOLEAN": KindBool,
	} {
		got, err := KindFromName(name)
		if err != nil || got != want {
			t.Errorf("KindFromName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := KindFromName("blob"); err == nil {
		t.Error("KindFromName(blob) should fail")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if v := NewInt(7); v.Kind != KindInt || v.AsInt() != 7 || v.AsFloat() != 7 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewFloat(2.5); v.Kind != KindFloat || v.AsFloat() != 2.5 || v.AsInt() != 2 {
		t.Errorf("NewFloat: %+v", v)
	}
	if v := NewText("x"); v.Kind != KindText || v.Text != "x" {
		t.Errorf("NewText: %+v", v)
	}
	if v := NewBool(true); v.Kind != KindBool || !v.Bool {
		t.Errorf("NewBool: %+v", v)
	}
	if !NewInt(1).IsNumeric() || !NewFloat(1).IsNumeric() || NewText("1").IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
}

func TestValueTruth(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null(), false},
		{NewInt(0), false}, {NewInt(3), true}, {NewInt(-1), true},
		{NewFloat(0), false}, {NewFloat(0.1), true},
		{NewText(""), false}, {NewText("a"), true},
		{NewBool(false), false}, {NewBool(true), true},
	}
	for _, c := range cases {
		if got := c.v.Truth(); got != c.want {
			t.Errorf("Truth(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	mustCmp := func(a, b Value, want int) {
		t.Helper()
		got, err := a.Compare(b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", a, b, err)
		}
		if got != want {
			t.Errorf("Compare(%v,%v) = %d, want %d", a, b, got, want)
		}
	}
	mustCmp(NewInt(1), NewInt(2), -1)
	mustCmp(NewInt(2), NewInt(2), 0)
	mustCmp(NewInt(3), NewInt(2), 1)
	mustCmp(NewInt(2), NewFloat(2.5), -1) // cross numeric kinds
	mustCmp(NewFloat(2.5), NewInt(2), 1)
	mustCmp(NewText("abc"), NewText("abd"), -1)
	mustCmp(NewBool(false), NewBool(true), -1)
	mustCmp(Null(), NewInt(0), -1) // NULL sorts first
	mustCmp(NewInt(0), Null(), 1)
	mustCmp(Null(), Null(), 0)

	if _, err := NewText("a").Compare(NewInt(1)); err == nil {
		t.Error("comparing TEXT with INT should fail")
	}
}

func TestValueEqual(t *testing.T) {
	if !NewInt(2).Equal(NewFloat(2)) {
		t.Error("2 == 2.0 should hold")
	}
	if NewText("a").Equal(NewInt(1)) {
		t.Error("incomparable kinds must be unequal, not an error")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewInt(-5), "-5"},
		{NewFloat(1.5), "1.5"},
		{NewText("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSQLLiteralQuotesText(t *testing.T) {
	if got := NewText("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
	if got := NewInt(3).SQLLiteral(); got != "3" {
		t.Errorf("SQLLiteral(3) = %q", got)
	}
}

// The integer SortKey is written digit by digit; it must stay the bytes
// of the fmt form it replaced, which stored index keys were built with.
func TestSortKeyIntMatchesFmtForm(t *testing.T) {
	for _, n := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, -1234567890123, 42} {
		want := fmt.Sprintf("i%020d", uint64(n)+1<<63)
		if got := NewInt(n).SortKey(); got != want {
			t.Errorf("SortKey(%d) = %q, want %q", n, got, want)
		}
	}
}

// Property: SortKey preserves integer order (the backbone of index
// itemization).
func TestSortKeyOrderPreservingInts(t *testing.T) {
	f := func(a, b int32) bool {
		ka, kb := NewInt(int64(a)).SortKey(), NewInt(int64(b)).SortKey()
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: SortKey preserves float order within the practical range
// (data-index keys for FLOAT columns).
func TestSortKeyOrderPreservingFloats(t *testing.T) {
	f := func(a, b float64) bool {
		// Constrain to the engine's practical magnitude range.
		a = float64(int64(a*1000)%1e12) / 1000
		b = float64(int64(b*1000)%1e12) / 1000
		ka, kb := NewFloat(a).SortKey(), NewFloat(b).SortKey()
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is a total order over same-kind values: antisymmetric
// and transitive on random int triples.
func TestCompareTotalOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]Value, 200)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = NewInt(rng.Int63n(100))
		} else {
			vals[i] = NewFloat(rng.Float64() * 100)
		}
	}
	sort.Slice(vals, func(i, j int) bool {
		c, err := vals[i].Compare(vals[j])
		if err != nil {
			t.Fatalf("compare: %v", err)
		}
		return c < 0
	})
	for i := 1; i < len(vals); i++ {
		c, _ := vals[i-1].Compare(vals[i])
		if c > 0 {
			t.Fatalf("not sorted at %d: %v > %v", i, vals[i-1], vals[i])
		}
	}
}
