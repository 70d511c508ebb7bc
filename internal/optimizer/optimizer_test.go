package optimizer

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/sql"
)

// optFixture is a two-table database with controllable summaries:
// R(a, b) with classifier C1 (optionally also on S), S(x, z).
type optFixture struct {
	cat      *catalog.Catalog
	r, s     *catalog.Table
	sIdx     map[string]*index.SummaryBTree // key: table|instance
	bIdx     map[string]*index.Baseline
	env      *Env
	resolver func(stmt *sql.SelectStmt) (plan.Node, *plan.AliasResolver)
	builder  *plan.Builder
	t        *testing.T
}

func newOptFixture(t *testing.T, nR, nS int, shareInstance bool, seed int64) *optFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := catalog.New(nil, 8)
	r, err := cat.CreateTable("R", model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "b", Kind: model.KindText}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := cat.CreateTable("S", model.NewSchema("",
		model.Column{Name: "x", Kind: model.KindInt},
		model.Column{Name: "z", Kind: model.KindText}))
	if err != nil {
		t.Fatal(err)
	}
	ci := &catalog.SummaryInstance{Name: "C1", Type: model.SummaryClassifier,
		Labels: []string{"Disease", "Other"}}
	cat.DefineInstance(ci, nil)
	cat.LinkInstance("R", "C1")
	if shareInstance {
		cat.LinkInstance("S", "C1")
	}
	nextAnn := int64(1)
	mkSet := func(oid int64, d int) model.SummarySet {
		var dIDs []int64
		for i := 0; i < d; i++ {
			dIDs = append(dIDs, nextAnn)
			nextAnn++
		}
		oIDs := []int64{nextAnn}
		nextAnn++
		return model.SummarySet{{
			InstanceID: "C1", TupleOID: oid, Type: model.SummaryClassifier,
			Reps: []model.Rep{
				{Label: "Disease", Count: len(dIDs), Elements: dIDs},
				{Label: "Other", Count: len(oIDs), Elements: oIDs},
			},
		}}
	}
	for i := 1; i <= nR; i++ {
		oid, _ := r.Insert([]model.Value{model.NewInt(int64(i)), model.NewText(fmt.Sprintf("b%d", i%5))})
		rid, _ := r.DiskTupleLoc(oid)
		r.PutSummaries(oid, rid, nil, mkSet(oid, rng.Intn(6)))
	}
	for j := 1; j <= nS; j++ {
		oid, _ := s.Insert([]model.Value{model.NewInt(int64(j%nR + 1)), model.NewText(fmt.Sprintf("z%d", j))})
		if shareInstance {
			rid, _ := s.DiskTupleLoc(oid)
			s.PutSummaries(oid, rid, nil, mkSet(oid, rng.Intn(3)))
		}
	}
	f := &optFixture{cat: cat, r: r, s: s, t: t,
		sIdx:    map[string]*index.SummaryBTree{},
		bIdx:    map[string]*index.Baseline{},
		builder: &plan.Builder{Cat: cat},
	}
	f.env = &Env{
		Cat: cat,
		SummaryIdx: func(table, inst string) *index.SummaryBTree {
			return f.sIdx[strings.ToLower(table+"|"+inst)]
		},
		BaselineIdx: func(table, inst string) *index.Baseline {
			return f.bIdx[strings.ToLower(table+"|"+inst)]
		},
		Annotations: cat.Anns.ForTuple,
		Lookup:      cat.Anns.Lookup(),
		Propagate:   true,
	}
	return f
}

// buildSummaryIndex constructs a Summary-BTree over a table's C1
// objects.
func (f *optFixture) buildSummaryIndex(t *catalog.Table) {
	idx := index.NewSummaryBTree(nil, "C1")
	t.SummaryStorage.Scan(func(_ heap.RID, oid int64, set model.SummarySet) bool {
		if obj := set.Get("C1"); obj != nil {
			if rid, ok := t.DiskTupleLoc(oid); ok {
				idx.IndexObject(obj, rid)
			}
		}
		return true
	})
	f.sIdx[strings.ToLower(t.Name+"|C1")] = idx
}

func (f *optFixture) buildBaselineIndex(t *catalog.Table) {
	idx := index.NewBaseline(nil, 8, "C1")
	t.SummaryStorage.Scan(func(_ heap.RID, oid int64, set model.SummarySet) bool {
		if obj := set.Get("C1"); obj != nil {
			idx.IndexObject(obj)
		}
		return true
	})
	f.bIdx[strings.ToLower(t.Name+"|C1")] = idx
}

// run plans + executes a query, returning sorted row renderings
// (values + summary content) for plan-equivalence comparison.
func (f *optFixture) run(q string, opts Options) []string {
	f.t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		f.t.Fatal(err)
	}
	root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
	if err != nil {
		f.t.Fatal(err)
	}
	env := *f.env
	env.Propagate = stmt.(*sql.SelectStmt).Propagate
	it, err := Compile(Optimize(root, resolver, &env, opts), &env, opts)
	if err != nil {
		f.t.Fatal(err)
	}
	rows, err := exec.Collect(nil, it)
	if err != nil {
		f.t.Fatalf("%s: %v", q, err)
	}
	if !env.Propagate {
		// The engine strips output summaries under WITHOUT SUMMARIES;
		// emulate its contract here.
		for _, row := range rows {
			row.Tuple.Summaries = nil
		}
	}
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = row.Tuple.String() + " " + row.Tuple.Summaries.String()
	}
	sort.Strings(out)
	return out
}

func (f *optFixture) explain(q string, opts Options) string {
	f.t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		f.t.Fatal(err)
	}
	root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
	if err != nil {
		f.t.Fatal(err)
	}
	return plan.Explain(Optimize(root, resolver, f.env, opts))
}

func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRule2PushdownPrecondition: S pushes below ⋈ only when the
// instance is absent from the other side.
func TestRule2PushdownPrecondition(t *testing.T) {
	q := `SELECT r.a FROM R r, S s WHERE r.a = s.x
	      AND r.$.getSummaryObject('C1').getLabelValue('Disease') > 2`

	// Case II (instance not on S): push fires.
	f := newOptFixture(t, 20, 40, false, 1)
	expl := f.explain(q, Options{})
	joinAt := strings.Index(expl, "Join")
	selAt := strings.Index(expl, "SummarySelect")
	if selAt < joinAt {
		t.Errorf("S not pushed below join (case II):\n%s", expl)
	}

	// Case I (shared instance): push must NOT fire.
	fShared := newOptFixture(t, 20, 40, true, 1)
	explShared := fShared.explain(q, Options{})
	joinAt = strings.Index(explShared, "Join")
	selAt = strings.Index(explShared, "SummarySelect")
	if selAt > joinAt {
		t.Errorf("S pushed despite shared instance (case I):\n%s", explShared)
	}
}

// Property P7 for rules 1/2/10 and access paths: optimized and canonical
// plans return identical rows AND identical propagated summaries, across
// random databases, both sharing and not sharing the instance.
func TestOptimizedPlansEquivalentProperty(t *testing.T) {
	queries := []string{
		`SELECT r.a FROM R r WHERE r.$.getSummaryObject('C1').getLabelValue('Disease') >= 2 AND r.b = 'b1'`,
		`SELECT r.a, s.z FROM R r, S s WHERE r.a = s.x AND r.$.getSummaryObject('C1').getLabelValue('Disease') > 1`,
		`SELECT r.a FROM R r, S s WHERE r.a = s.x AND r.b = 'b2'`,
		`SELECT r.a FROM R r ORDER BY r.$.getSummaryObject('C1').getLabelValue('Disease') DESC, r.a`,
		`SELECT r.a FROM R r, S s WHERE r.a = s.x
		 AND r.$.getSummaryObject('C1').getLabelValue('Disease')
		  <> s.$.getSummaryObject('C1').getLabelValue('Other')`,
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, shared := range []bool{false, true} {
			f := newOptFixture(t, 15, 30, shared, seed)
			f.buildSummaryIndex(f.r)
			f.s.CreateDataIndex("x")
			for qi, q := range queries {
				if shared && qi == 4 {
					// the <> query needs C1 on S; run it only there
				} else if !shared && qi == 4 {
					continue
				}
				canonical := f.run(q, Options{DisableRules: true})
				optimized := f.run(q, Options{})
				if !equalRows(canonical, optimized) {
					t.Fatalf("seed %d shared=%v q%d: plans differ\ncanonical: %v\noptimized: %v\nplan:\n%s",
						seed, shared, qi, canonical, optimized, f.explain(q, Options{}))
				}
				forced := f.run(q, Options{ForceJoin: "index", ForceSort: "disk", SortRunLen: 4})
				if !equalRows(canonical, forced) {
					t.Fatalf("seed %d shared=%v q%d: forced plan differs", seed, shared, qi)
				}
			}
		}
	}
}

// TestAccessPathSelection: the index is selected for selective
// predicates and skipped without one.
func TestAccessPathSelection(t *testing.T) {
	f := newOptFixture(t, 60, 0, false, 2)
	q := `SELECT r.a FROM R r WHERE r.$.getSummaryObject('C1').getLabelValue('Disease') = 5`
	if got := f.explain(q, Options{}); !strings.Contains(got, "SeqScan") || strings.Contains(got, "BTreeScan") {
		t.Errorf("no index available, expected scan:\n%s", got)
	}
	f.buildSummaryIndex(f.r)
	if got := f.explain(q, Options{}); !strings.Contains(got, "SummaryBTreeScan R AS r ON C1.Disease = 5") {
		t.Errorf("index not selected:\n%s", got)
	}
	if got := f.explain(q, Options{NoSummaryIndex: true}); strings.Contains(got, "SummaryBTreeScan") {
		t.Errorf("NoSummaryIndex ignored:\n%s", got)
	}
	f.buildBaselineIndex(f.r)
	if got := f.explain(q, Options{UseBaseline: true}); !strings.Contains(got, "BaselineIndexScan") {
		t.Errorf("baseline not selected:\n%s", got)
	}
	// Residual conjuncts survive above the index scan.
	q2 := q + " AND r.$.getSummaryObject('C1').getLabelValue('Other') = 1"
	if got := f.explain(q2, Options{}); !strings.Contains(got, "SummarySelect") ||
		!strings.Contains(got, "SummaryBTreeScan") {
		t.Errorf("residual handling:\n%s", got)
	}
}

// TestSortElimination: rules 3–6 remove the sort when the index provides
// the interesting order, and respect the shared-instance precondition.
func TestSortElimination(t *testing.T) {
	f := newOptFixture(t, 30, 20, false, 3)
	f.buildSummaryIndex(f.r)
	q := `SELECT r.a FROM R r, S s WHERE r.a = s.x
	      ORDER BY r.$.getSummaryObject('C1').getLabelValue('Disease')`
	if got := f.explain(q, Options{}); !strings.Contains(got, "eliminated: index order") {
		t.Errorf("sort not eliminated:\n%s", got)
	}
	// Shared instance on the inner side: merge may reorder, keep sort.
	fShared := newOptFixture(t, 30, 20, true, 3)
	fShared.buildSummaryIndex(fShared.r)
	if got := fShared.explain(q, Options{}); strings.Contains(got, "eliminated") {
		t.Errorf("sort wrongly eliminated with shared instance:\n%s", got)
	}
	// Descending order also eliminates (index scan reverses).
	qd := q + " DESC"
	if got := f.explain(qd, Options{}); !strings.Contains(got, "eliminated") {
		t.Errorf("desc sort not eliminated:\n%s", got)
	}
	rows := f.run(qd, Options{})
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

// TestOrderPreservedThroughJoin (invariant P8): after sort elimination,
// the index-provided order must survive the join above it — rows come
// out genuinely sorted by the summary key.
func TestOrderPreservedThroughJoin(t *testing.T) {
	f := newOptFixture(t, 25, 50, false, 8)
	f.buildSummaryIndex(f.r)
	f.s.CreateDataIndex("x")
	q := `SELECT r.a FROM R r, S s WHERE r.a = s.x
	      ORDER BY r.$.getSummaryObject('C1').getLabelValue('Disease')`
	for _, opts := range []Options{{}, {ForceJoin: "index"}, {ForceJoin: "nl"}} {
		expl := f.explain(q, opts)
		if !strings.Contains(expl, "eliminated: index order") {
			t.Fatalf("sort not eliminated under %+v:\n%s", opts, expl)
		}
		stmt, _ := sql.Parse(q)
		root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		it, err := Compile(Optimize(root, resolver, f.env, opts), f.env, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(nil, it)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
		prev := -1
		for i, row := range rows {
			obj := row.Tuple.Summaries.Get("C1")
			d, _ := obj.GetLabelValue("Disease")
			if d < prev {
				t.Fatalf("opts %+v: order broken at row %d: %d after %d", opts, i, d, prev)
			}
			prev = d
		}
	}
}

// replica adds T(a, c), a replica of R's a column, and indexes a on
// both T and R.
func (f *optFixture) replica() {
	f.t.Helper()
	tbl, err := f.cat.CreateTable("T", model.NewSchema("",
		model.Column{Name: "a", Kind: model.KindInt},
		model.Column{Name: "c", Kind: model.KindText}))
	if err != nil {
		f.t.Fatal(err)
	}
	f.r.Scan(func(_ heap.RID, tu *model.Tuple) bool {
		tbl.Insert([]model.Value{tu.Values[0], model.NewText("t")})
		return true
	})
	tbl.CreateDataIndex("a")
	f.r.CreateDataIndex("a")
}

// TestRule11Reorder: the data join with an indexed replica runs first.
func TestRule11Reorder(t *testing.T) {
	f := newOptFixture(t, 20, 30, false, 4)
	f.replica()

	q := `SELECT r.a FROM R r, S s, T t
	      WHERE t.a = r.a
	      AND (r.$.getSummaryObject('C1').getLabelValue('Disease') > 3
	        OR s.$.getSummaryObject('C1').getLabelValue('Other') > 99)`
	optimized := f.explain(q, Options{})
	// Rule 11 shape: the SummaryJoin sits ABOVE the data join ⋈ (whose
	// implementation — NL, hash, or index — the cost model picks).
	sjAt := strings.Index(optimized, "SummaryJoin")
	djAt := strings.Index(optimized, "⋈[")
	if sjAt < 0 || djAt < 0 || sjAt > djAt {
		t.Errorf("rule 11 not applied:\n%s", optimized)
	}
	// Equivalence with the canonical order.
	canonical := f.run(q, Options{DisableRules: true})
	opt := f.run(q, Options{})
	if !equalRows(canonical, opt) {
		t.Fatalf("rule 11 changed results:\ncanonical %v\noptimized %v", canonical, opt)
	}
}

// TestFilterPushdownRules78: F pushes through joins when structural.
func TestFilterPushdownRules78(t *testing.T) {
	f := newOptFixture(t, 10, 10, true, 5)
	stmt, err := sql.Parse(`SELECT r.a FROM R r, S s WHERE r.a = s.x`)
	if err != nil {
		t.Fatal(err)
	}
	root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	// Wrap with an F node (the engine's propagate-only-instances path).
	project := root.(*plan.ProjectNode)
	project.Child = &plan.SummaryFilterNode{Child: project.Child, Instances: []string{"C1"}}
	optimized := Optimize(root, resolver, f.env, Options{})
	expl := plan.Explain(optimized)
	first := strings.Index(expl, "SummaryFilter")
	joinAt := strings.Index(expl, "Join")
	if first < 0 || first < joinAt {
		t.Errorf("F not pushed below join:\n%s", expl)
	}
	if strings.Count(expl, "SummaryFilter") != 2 {
		t.Errorf("structural F should push to both sides:\n%s", expl)
	}
}

// TestCostModelOrdering: cardinality estimates are sane and the cost
// model prefers the cheaper alternative.
func TestCostModelOrdering(t *testing.T) {
	f := newOptFixture(t, 100, 200, false, 6)
	f.buildSummaryIndex(f.r)
	stmt, _ := sql.Parse(`SELECT r.a FROM R r WHERE r.$.getSummaryObject('C1').getLabelValue('Disease') = 5`)
	root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	canonical := EstimateNode(root, resolver, f.env, Options{})
	optimized := Optimize(root, resolver, f.env, Options{})
	optEst := EstimateNode(optimized, resolver, f.env, Options{})
	if optEst.Cost >= canonical.Cost {
		t.Errorf("optimized cost %.1f >= canonical %.1f", optEst.Cost, canonical.Cost)
	}
	if optEst.Rows <= 0 || optEst.Rows > 100 {
		t.Errorf("row estimate %f out of range", optEst.Rows)
	}
	// Scan estimate equals table size.
	scan := plan.NewScan(f.r, "r")
	if est := EstimateNode(scan, resolver, f.env, Options{}); est.Rows != 100 {
		t.Errorf("scan rows = %f", est.Rows)
	}
}

// TestEstimatesCoverAllNodes drives the cost model over every node
// shape and sanity-checks monotonicity.
func TestEstimatesCoverAllNodes(t *testing.T) {
	f := newOptFixture(t, 40, 80, true, 9)
	f.buildSummaryIndex(f.r)
	f.buildBaselineIndex(f.r)
	f.s.CreateDataIndex("x")
	queries := []string{
		`SELECT r.a, count(*) FROM R r, S s WHERE r.a = s.x AND r.b = 'b1'
		 GROUP BY r.a HAVING count(*) > 1
		 ORDER BY count(*) DESC LIMIT 3`,
		`SELECT DISTINCT r.b FROM R r
		 WHERE r.$.getSummaryObject('C1').getLabelValue('Disease') >= 1`,
		`SELECT r.a FROM R r, S s WHERE r.a = s.x
		 AND r.$.getSummaryObject('C1').getLabelValue('Disease')
		  <> s.$.getSummaryObject('C1').getLabelValue('Disease')
		 ORDER BY r.a`,
	}
	for _, q := range queries {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {UseBaseline: true}, {DisableRules: true}} {
			n := Optimize(root, resolver, f.env, opts)
			est := EstimateNode(n, resolver, f.env, opts)
			if est.Rows < 0 || est.Cost <= 0 {
				t.Errorf("%q opts %+v: estimate %+v", q, opts, est)
			}
		}
		// The plans still execute correctly.
		canonical := f.run(q, Options{DisableRules: true})
		optimized := f.run(q, Options{})
		if !equalRows(canonical, optimized) {
			t.Fatalf("%q: results differ", q)
		}
	}
}

// TestFilterPushdownGuards: F must NOT push through a SummaryJoin when
// it would drop instances the join predicate needs, and type filters
// are conservative.
func TestFilterPushdownGuards(t *testing.T) {
	f := newOptFixture(t, 8, 8, true, 10)
	stmt, _ := sql.Parse(`SELECT r.a FROM R r, S s WHERE r.a = s.x
		AND r.$.getSummaryObject('C1').getLabelValue('Disease')
		 <> s.$.getSummaryObject('C1').getLabelValue('Disease')`)
	root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	// An F keeping an instance the J does NOT reference would drop C1:
	// must stay above the join.
	project := root.(*plan.ProjectNode)
	project.Child = &plan.SummaryFilterNode{Child: project.Child, Instances: []string{"OtherInst"}}
	expl := plan.Explain(Optimize(root, resolver, f.env, Options{}))
	fAt := strings.Index(expl, "SummaryFilter")
	jAt := strings.Index(expl, "SummaryJoin")
	if fAt < 0 || jAt < 0 || fAt > jAt {
		t.Errorf("F pushed past a J that needs dropped instances:\n%s", expl)
	}
	// A type filter is conservative too.
	root2, resolver2, _ := f.builder.Build(stmt.(*sql.SelectStmt))
	p2 := root2.(*plan.ProjectNode)
	p2.Child = &plan.SummaryFilterNode{Child: p2.Child,
		Types: []model.SummaryType{model.SummarySnippet}}
	expl2 := plan.Explain(Optimize(root2, resolver2, f.env, Options{}))
	if strings.Count(expl2, "SummaryFilter") != 1 {
		t.Errorf("type filter duplicated below join:\n%s", expl2)
	}
}

// TestCompileErrorsAndDegenerates covers compile paths for bad shapes.
func TestCompileDegenerates(t *testing.T) {
	f := newOptFixture(t, 5, 5, false, 7)
	// Cross join (no predicates at all).
	rows := f.run(`SELECT r.a, s.z FROM R r, S s`, Options{})
	if len(rows) != 25 {
		t.Errorf("cross join rows = %d", len(rows))
	}
	// WITHOUT SUMMARIES strips output summaries even with summary preds.
	outRows := f.run(`SELECT r.a FROM R r
		WHERE r.$.getSummaryObject('C1').getLabelValue('Other') = 1 WITHOUT SUMMARIES`, Options{})
	for _, r := range outRows {
		if !strings.HasSuffix(r, "{}") {
			t.Errorf("summaries leaked: %q", r)
		}
	}
}
