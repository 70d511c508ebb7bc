package optimizer

import (
	"math"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Regression for the range-bound bug: OpLt/OpLe used a hard-coded 0 as
// the open lower bound instead of the label domain's true minimum. For
// a domain shifted below zero, "label < c" collapsed to an empty range
// (hi < 0 = lo), estimating 0 matching rows — so the optimizer chose
// the index probe even when half the table qualifies.
func TestSelectivityShiftedDomainRegression(t *testing.T) {
	f := newOptFixture(t, 60, 0, false, 7)
	// Shifted label domain [-10, 10], 5 objects per value: ~48% of
	// objects sit below 0.
	ls := f.r.Stats("C1").Label("Shifted")
	for i := 0; i < 105; i++ {
		ls.Add(-10 + i%21)
	}

	rw := &rewriter{env: f.env, opts: Options{UseBaseline: true}, resolver: nil}
	cp := &plan.ClassifierPredicate{Instance: "C1", Label: "Shifted", Op: index.OpLt, Constant: 0}

	sel := rw.selectivity(f.r, cp)
	want := 10.0 / 21
	if math.Abs(sel-want) > 0.1 {
		t.Fatalf("selectivity(Shifted < 0) = %v, want ≈ %v (hard-coded 0 lower bound estimates 0)", sel, want)
	}

	// Access-path selection flips between the half-the-table predicate
	// (the scan) and a highly selective point predicate on the same
	// label (the baseline index).
	f.buildBaselineIndex(f.r)
	opts := Options{UseBaseline: true}
	qRange := `SELECT r.a FROM R r WHERE r.$.getSummaryObject('C1').getLabelValue('Shifted') < 0`
	if got := f.explain(qRange, opts); strings.Contains(got, "BaselineIndexScan") {
		t.Errorf("range predicate over half the shifted domain picked the index:\n%s", got)
	}
	qPoint := `SELECT r.a FROM R r WHERE r.$.getSummaryObject('C1').getLabelValue('Shifted') = -10`
	if got := f.explain(qPoint, opts); !strings.Contains(got, "BaselineIndexScan") {
		t.Errorf("selective point predicate on the shifted domain skipped the index:\n%s", got)
	}
}

// The symmetric upper-bound audit: OpGt/OpGe already close the range
// with ls.Max(); a shifted domain must behave identically through them.
func TestSelectivityShiftedDomainUpperBounds(t *testing.T) {
	f := newOptFixture(t, 20, 0, false, 8)
	ls := f.r.Stats("C1").Label("Shifted")
	for i := 0; i < 105; i++ {
		ls.Add(-10 + i%21)
	}
	rw := &rewriter{env: f.env, opts: Options{}, resolver: nil}
	gt := &plan.ClassifierPredicate{Instance: "C1", Label: "Shifted", Op: index.OpGt, Constant: -1}
	if sel := rw.selectivity(f.r, gt); math.Abs(sel-11.0/21) > 0.1 {
		t.Errorf("selectivity(Shifted > -1) = %v, want ≈ %v", sel, 11.0/21)
	}
	ge := &plan.ClassifierPredicate{Instance: "C1", Label: "Shifted", Op: index.OpGe, Constant: 0}
	if sel := rw.selectivity(f.r, ge); math.Abs(sel-11.0/21) > 0.1 {
		t.Errorf("selectivity(Shifted >= 0) = %v, want ≈ %v", sel, 11.0/21)
	}
	le := &plan.ClassifierPredicate{Instance: "C1", Label: "Shifted", Op: index.OpLe, Constant: 10}
	if sel := rw.selectivity(f.r, le); sel < 0.9 {
		t.Errorf("selectivity(Shifted <= max) = %v, want ≈ 1", sel)
	}
}

// Regression for the no-statistics fallback: equality and range
// predicates both guessed 0.1; equality now uses a small
// 1/NumDistinct-style default and ranges the conventional one-third.
func TestSelectivityNoStatsDefaults(t *testing.T) {
	f := newOptFixture(t, 10, 0, false, 9)
	rw := &rewriter{env: f.env, opts: Options{}, resolver: nil}

	eq := &plan.ClassifierPredicate{Instance: "C1", Label: "Cold", Op: index.OpEq, Constant: 3}
	if sel := rw.selectivity(f.r, eq); sel != defaultEqSelectivity {
		t.Errorf("cold equality selectivity = %v, want %v", sel, defaultEqSelectivity)
	}
	for _, op := range []index.CmpOp{index.OpLt, index.OpLe, index.OpGt, index.OpGe} {
		cp := &plan.ClassifierPredicate{Instance: "C1", Label: "Cold", Op: op, Constant: 3}
		if sel := rw.selectivity(f.r, cp); sel != defaultRangeSelectivity {
			t.Errorf("cold %v selectivity = %v, want %v", op, sel, defaultRangeSelectivity)
		}
	}
}

// keyTables adds two 40-row tables with one indexed INT column k of the
// same name: T1.k is a key (40 distinct values), T2.k holds 4 values of
// 10 rows each.
func (f *optFixture) keyTables() {
	f.t.Helper()
	for name, distinct := range map[string]int{"T1": 40, "T2": 4} {
		tbl, err := f.cat.CreateTable(name, model.NewSchema("", model.Column{Name: "k", Kind: model.KindInt}))
		if err != nil {
			f.t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			tbl.Insert([]model.Value{model.NewInt(int64(i % distinct))})
		}
		tbl.CreateDataIndex("k")
	}
}

// firstJoin returns the optimized plan of q under opts and the first
// data join in it, for estimating.
func (f *optFixture) firstJoin(q string, opts Options) (*plan.Join, *plan.AliasResolver) {
	f.t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		f.t.Fatal(err)
	}
	root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
	if err != nil {
		f.t.Fatal(err)
	}
	var join *plan.Join
	var find func(n plan.Node)
	find = func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && join == nil {
			join = j
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(Optimize(root, resolver, f.env, opts))
	if join == nil {
		f.t.Fatalf("no join in the plan of %s", q)
	}
	return join, resolver
}

// An index join reads, per outer row, the inner rows sharing the probed
// key: its estimate grows with the inner column's rows per key
// (|T2| / NumDistinct(T2.k) = 10 against T1's 1), by the outer rows
// times the difference.
func TestIndexJoinEstimateGrowsWithRowsPerKey(t *testing.T) {
	f := newOptFixture(t, 20, 0, false, 12)
	f.keyTables()
	opts := Options{ForceJoin: "index"}
	key, resolver := f.firstJoin(`SELECT r.a FROM R r, T1 t WHERE r.a = t.k`, opts)
	fan, _ := f.firstJoin(`SELECT r.a FROM R r, T2 t WHERE r.a = t.k`, opts)
	if !key.UseIndex || !fan.UseIndex {
		t.Fatalf("expected index joins: %s / %s", key.Describe(), fan.Describe())
	}
	keyEst := EstimateNode(key, resolver, f.env, opts)
	fanEst := EstimateNode(fan, resolver, f.env, opts)
	outer := EstimateNode(key.Left, resolver, f.env, opts)
	if want := keyEst.Cost + outer.Rows*9; math.Abs(fanEst.Cost-want) > 1e-9 {
		t.Errorf("index join over 10 rows per key costs %.2f, want %.2f (1 row per key: %.2f)",
			fanEst.Cost, want, keyEst.Cost)
	}
}

// Column statistics resolve through the column's table: in a.k = b.k
// over T1 (40 distinct) and T2 (4 distinct) each side takes its own
// table's NumDistinct, whichever table comes first, so the join keeps
// |T1|·|T2| / 40 rows and a.k = 3 above it selects 1/40 of them.
func TestColumnStatisticsFollowTheQualifier(t *testing.T) {
	f := newOptFixture(t, 5, 0, false, 13)
	f.keyTables()
	for _, q := range []string{
		`SELECT a.k FROM T1 a, T2 b WHERE a.k = b.k`,
		`SELECT a.k FROM T2 b, T1 a WHERE a.k = b.k`,
	} {
		j, resolver := f.firstJoin(q, Options{ForceJoin: "nl"})
		est := EstimateNode(j, resolver, f.env, Options{})
		if est.Rows != 40 {
			t.Errorf("%s: join estimate %.1f rows, want 40", q, est.Rows)
		}
		pred, err := sql.ParseExpr("a.k = 3")
		if err != nil {
			t.Fatal(err)
		}
		sel := EstimateNode(&plan.Select{Child: j, Pred: pred}, resolver, f.env, Options{})
		if sel.Rows != 1 {
			t.Errorf("%s: a.k = 3 over the join estimates %.2f rows, want 1", q, sel.Rows)
		}
	}
}
