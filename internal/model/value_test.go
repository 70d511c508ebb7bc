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

// oldSortKey is the key encoding before FLOAT keys became exact: the
// oracle that INT, TEXT, BOOL and NULL keys are still the bytes stored
// keys were built with.
func oldSortKey(v Value) string {
	switch v.Kind {
	case KindNull:
		return "\x00"
	case KindInt:
		return fmt.Sprintf("i%020d", uint64(v.Int)+1<<63)
	case KindText:
		return "t" + v.Text
	case KindBool:
		if v.Bool {
			return "b1"
		}
		return "b0"
	}
	return fmt.Sprintf("f%030.10f", v.Float+1e15)
}

// fuzzValue builds a value of kind k%5 from the fuzzer's fields: INTs
// within ±2^53 (where Compare's float64 widening is exact) and finite
// FLOATs; ok is false for a non-finite float.
func fuzzValue(k uint8, i int64, f float64, s string) (v Value, ok bool) {
	switch Kind(k % 5) {
	case KindInt:
		return NewInt(i % (1 << 53)), true
	case KindFloat:
		return NewFloat(f), !math.IsNaN(f) && !math.IsInf(f, 0)
	case KindText:
		return NewText(s), true
	case KindBool:
		return NewBool(i&1 == 1), true
	}
	return Null(), true
}

// FuzzValueKey: two values get equal keys exactly when Compare calls
// them equal, AppendSortKey appends to what dst holds, and every key
// but a FLOAT's is the old encoding's bytes.
func FuzzValueKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, okA := fuzzValue(ka, ia, fa, sa)
		b, okB := fuzzValue(kb, ib, fb, sb)
		if !okA || !okB {
			return
		}
		keyA, keyB := a.SortKey(), b.SortKey()
		c, err := a.Compare(b)
		if same := err == nil && c == 0; (keyA == keyB) != same {
			t.Fatalf("%#v vs %#v: keys %q and %q, Compare = %d, %v", a, b, keyA, keyB, c, err)
		}
		if got := string(a.AppendSortKey([]byte("pre"))); got != "pre"+keyA {
			t.Fatalf("AppendSortKey(%#v) onto \"pre\" = %q, want %q", a, got, "pre"+keyA)
		}
		if a.Kind != KindFloat && keyA != oldSortKey(a) {
			t.Fatalf("key of %#v = %q, the old encoding %q", a, keyA, oldSortKey(a))
		}
	})
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
