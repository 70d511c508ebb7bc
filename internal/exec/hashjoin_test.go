package exec

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

func TestHashJoinAgreesWithNLJoin(t *testing.T) {
	f := newOpsFixture(t, 9, 27)
	nl, err := Collect(nil, NewNLJoin(NewSeqScan(f.r, "r", true), NewSeqScan(f.s, "s", true),
		mustExpr(t, "r.a = s.x"), true, nil))
	if err != nil {
		t.Fatal(err)
	}
	hj, err := Collect(nil, NewHashJoin(NewSeqScan(f.r, "r", true), NewSeqScan(f.s, "s", true),
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
	rows, err := Collect(nil, NewHashJoin(NewSeqScan(f.r, "r", false), NewSeqScan(f.s, "s", false),
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
	hj := NewHashJoin(NewSliceIter(schema, left), NewSliceIter(rschema, right),
		mustExpr(t, "l.k"), mustExpr(t, "r.k2"), nil, false, nil)
	rows, err := Collect(nil, hj)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // (1,1) with right rows 3 and 5; NULLs drop
		t.Fatalf("rows = %d", len(rows))
	}
	// Residual filters matches.
	hj2 := NewHashJoin(NewSliceIter(schema, left), NewSliceIter(rschema, right),
		mustExpr(t, "l.k"), mustExpr(t, "r.k2"), mustExpr(t, "r.k2 + l.k = 2"), false, nil)
	rows2, err := Collect(nil, hj2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 2 {
		t.Fatalf("residual rows = %d", len(rows2))
	}
}

func TestHashKeyNumericCrossKind(t *testing.T) {
	if hashKey(model.NewInt(5)) != hashKey(model.NewFloat(5.0)) {
		t.Error("5 and 5.0 must hash identically (they compare equal)")
	}
	if hashKey(model.NewFloat(5.5)) == hashKey(model.NewInt(5)) {
		t.Error("5.5 must not collide with 5")
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
		rows, err := Collect(nil, NewHashJoin(NewSliceIter(ls, left), NewSliceIter(rs, right),
			mustExpr(t, "l.k"), mustExpr(t, "r.k2"), nil, false, nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != want {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(rows), want)
		}
	}
}
