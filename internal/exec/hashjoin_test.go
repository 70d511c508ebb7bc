package exec

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

func TestHashJoinAgreesWithNLJoin(t *testing.T) {
	f := newOpsFixture(t, 9, 27)
	nl, err := Collect(nil, NewNLJoin(summaryScan(f.r, "r"), summaryScan(f.s, "s"),
		mustExpr(t, "r.a = s.x"), true, nil))
	if err != nil {
		t.Fatal(err)
	}
	hj, err := Collect(nil, NewHashJoin(summaryScan(f.r, "r"), []Operator{summaryScan(f.s, "s")},
		mustExpr(t, "r.a"), mustExpr(t, "s.x"), nil, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(nl) != len(hj) || len(nl) == 0 {
		t.Fatalf("NL %d vs Hash %d rows", len(nl), len(hj))
	}
	key := func(r *Row) string { return r.Tuple.String() + " " + r.Tuple.Summaries.String() }
	a, b := make([]string, len(nl)), make([]string, len(hj))
	for i := range nl {
		a[i], b[i] = key(nl[i]), key(hj[i])
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

func TestHashJoinPreservesOuterOrder(t *testing.T) {
	f := newOpsFixture(t, 6, 18)
	rows, err := Collect(nil, NewHashJoin(NewSeqScan(f.r, "r"), []Operator{NewSeqScan(f.s, "s")},
		mustExpr(t, "r.a"), mustExpr(t, "s.x"), nil, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for _, row := range rows {
		if row.Tuple.Values[0].Int < prev {
			t.Fatal("outer order broken")
		}
		prev = row.Tuple.Values[0].Int
	}
}

func TestHashJoinResidualAndNullKeys(t *testing.T) {
	schema := model.NewSchema("l", model.Column{Name: "k", Kind: model.KindInt})
	left := []*Row{
		{Tuple: model.NewTuple(1, model.NewInt(1))},
		{Tuple: model.NewTuple(2, model.Null())}, // NULL key never joins
	}
	rschema := model.NewSchema("r", model.Column{Name: "k2", Kind: model.KindInt})
	right := []*Row{
		{Tuple: model.NewTuple(3, model.NewInt(1))},
		{Tuple: model.NewTuple(4, model.Null())},
		{Tuple: model.NewTuple(5, model.NewInt(1))},
	}
	hj := NewHashJoin(NewSliceIter(schema, left), []Operator{NewSliceIter(rschema, right)},
		mustExpr(t, "l.k"), mustExpr(t, "r.k2"), nil, false, nil)
	rows, err := Collect(nil, hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // (1,1) with right rows 3 and 5; NULLs drop
		t.Fatalf("rows = %d", len(rows))
	}
	// Residual filters matches.
	hj2 := NewHashJoin(NewSliceIter(schema, left), []Operator{NewSliceIter(rschema, right)},
		mustExpr(t, "l.k"), mustExpr(t, "r.k2"), mustExpr(t, "r.k2 + l.k = 2"), false, nil)
	rows2, err := Collect(nil, hj2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 2 {
		t.Fatalf("residual rows = %d", len(rows2))
	}
}

// TestHashKeyNumericCrossKind: the hash join keys both sides by the
// value's equality key, so INT 5 meets FLOAT 5.0 and INT 0 meets -0.0
// (they compare equal in the evaluator too), and 5 never meets 5.5.
func TestHashKeyNumericCrossKind(t *testing.T) {
	lschema := model.NewSchema("l", model.Column{Name: "k", Kind: model.KindInt})
	rschema := model.NewSchema("r", model.Column{Name: "f", Kind: model.KindFloat})
	left := []*Row{{Tuple: model.NewTuple(1, model.NewInt(5))}, {Tuple: model.NewTuple(2, model.NewInt(0))}}
	right := []*Row{
		{Tuple: model.NewTuple(3, model.NewFloat(5.5))},
		{Tuple: model.NewTuple(4, model.NewFloat(5))},
		{Tuple: model.NewTuple(5, model.NewFloat(math.Copysign(0, -1)))},
	}
	rows, err := Collect(nil, NewHashJoin(NewSliceIter(lschema, left), []Operator{NewSliceIter(rschema, right)},
		mustExpr(t, "l.k"), mustExpr(t, "r.f"), nil, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.Tuple.Values[0].String()+"="+r.Tuple.Values[1].String())
	}
	if strings.Join(got, " ") != "5=5 0=-0" {
		t.Errorf("joined pairs %v, want [5=5 0=-0]", got)
	}
}

// TestHashJoinProbeAllocatesNothing: the probe appends the outer row's
// key into the operator's reused bytes and looks it up uncopied, however
// long the key.
func TestHashJoinProbeAllocatesNothing(t *testing.T) {
	name := model.NewText("a family name longer than any stack key buffer")
	lschema := model.NewSchema("l", model.Column{Name: "k", Kind: model.KindText})
	rschema := model.NewSchema("r", model.Column{Name: "k2", Kind: model.KindText})
	outer := &Row{Tuple: model.NewTuple(1, name)}
	right := []*Row{{Tuple: model.NewTuple(2, name)}, {Tuple: model.NewTuple(3, model.NewText("other"))}}
	hj := NewHashJoin(NewSliceIter(lschema, []*Row{outer}), []Operator{NewSliceIter(rschema, right)},
		mustExpr(t, "l.k"), mustExpr(t, "r.k2"), nil, false, nil)
	if err := hj.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer hj.Close()
	if got, err := hj.probe.candidates(nil, outer); err != nil || len(got) != 1 {
		t.Fatalf("probe found %d rows, %v; want 1", len(got), err)
	}
	if n := testing.AllocsPerRun(100, func() { hj.probe.candidates(nil, outer) }); n != 0 {
		t.Errorf("hash-join probe: %.0f allocations, want 0", n)
	}
}

func TestOrientEquiKeys(t *testing.T) {
	left := model.NewSchema("r", model.Column{Name: "a", Kind: model.KindInt})
	right := model.NewSchema("s", model.Column{Name: "x", Kind: model.KindInt})
	ra := &sql.ColumnRef{Qualifier: "r", Name: "a"}
	sx := &sql.ColumnRef{Qualifier: "s", Name: "x"}
	lk, rk, ok := OrientEquiKeys(ra, sx, left, right)
	if !ok || lk != ra || rk != sx {
		t.Error("forward orientation failed")
	}
	lk, rk, ok = OrientEquiKeys(sx, ra, left, right)
	if !ok || lk != ra || rk != sx {
		t.Error("reverse orientation failed")
	}
	zz := &sql.ColumnRef{Qualifier: "z", Name: "q"}
	if _, _, ok := OrientEquiKeys(ra, zz, left, right); ok {
		t.Error("foreign column must not orient")
	}
	// Unqualified columns resolve by schema membership.
	ua := &sql.ColumnRef{Name: "a"}
	ux := &sql.ColumnRef{Name: "x"}
	if _, _, ok := OrientEquiKeys(ua, ux, left, right); !ok {
		t.Error("unqualified orientation failed")
	}
}

// Property: on random data, hash join output (as a multiset) equals the
// brute-force cross product filtered by key equality.
func TestHashJoinMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ls := model.NewSchema("l", model.Column{Name: "k", Kind: model.KindInt})
	rs := model.NewSchema("r", model.Column{Name: "k2", Kind: model.KindInt})
	for trial := 0; trial < 30; trial++ {
		var left, right []*Row
		for i := 0; i < rng.Intn(30); i++ {
			left = append(left, &Row{Tuple: model.NewTuple(int64(i), model.NewInt(int64(rng.Intn(6))))})
		}
		for i := 0; i < rng.Intn(30); i++ {
			right = append(right, &Row{Tuple: model.NewTuple(int64(100+i), model.NewInt(int64(rng.Intn(6))))})
		}
		want := 0
		for _, l := range left {
			for _, r := range right {
				if l.Tuple.Values[0].Int == r.Tuple.Values[0].Int {
					want++
				}
			}
		}
		rows, err := Collect(nil, NewHashJoin(NewSliceIter(ls, left), []Operator{NewSliceIter(rs, right)},
			mustExpr(t, "l.k"), mustExpr(t, "r.k2"), nil, false, nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(rows), want)
		}
	}
}
