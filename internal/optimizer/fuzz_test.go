package optimizer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/sql"
)

// TestRandomQueryPlanEquivalence is a randomized plan-equivalence
// fuzzer: it generates random queries over the fixture (random
// data/summary conjuncts, optional join, optional summary-based order),
// executes each under the canonical plan, the fully optimized plan, and
// several forced physical configurations, and requires identical result
// sets INCLUDING the propagated summary objects (invariants P1/P7).
func TestRandomQueryPlanEquivalence(t *testing.T) {
	const trials = 120
	for _, shared := range []bool{false, true} {
		f := equivalenceFixture(t, shared)
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < trials; trial++ {
			f.checkEquivalent(randomQuery(rng, shared), fmt.Sprintf("shared=%v trial %d", shared, trial))
		}
	}
}

// FuzzPlanEquivalence is TestRandomQueryPlanEquivalence over the join
// shapes a client can write: from the seed, clientQuery builds a query
// over R, S and possibly T, joined by WHERE conjuncts or JOIN … ON
// predicates that may read summaries, and every configuration must
// return the canonical plan's rows and summary sets.
func FuzzPlanEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		shared := rng.Intn(2) == 0
		fx := equivalenceFixture(t, shared)
		fx.replica()
		fx.checkEquivalent(clientQuery(rng, shared), fmt.Sprintf("seed %d shared=%v", seed, shared))
	})
}

// equivalenceFixture is the plan-equivalence tests' database: R with a
// Summary-BTree and a baseline index on C1, S with a data index on x,
// and with shared set S linked to C1 too and indexed.
func equivalenceFixture(t *testing.T, shared bool) *optFixture {
	f := newOptFixture(t, 18, 36, shared, 11)
	f.buildSummaryIndex(f.r)
	if shared {
		f.buildSummaryIndex(f.s)
	}
	f.buildBaselineIndex(f.r)
	f.s.CreateDataIndex("x")
	return f
}

// checkEquivalent requires every configuration's rows, summaries
// included, to equal the canonical plan's on q.
func (f *optFixture) checkEquivalent(q, label string) {
	f.t.Helper()
	canonical := f.run(q, Options{DisableRules: true})
	configs := []Options{
		{},
		{NoSummaryIndex: true},
		{UseBaseline: true},
		{ForceJoin: "index"},
		{ForceJoin: "hash"},
		{ForceJoin: "nl", ForceSort: "disk", SortRunLen: 3},
		{DisableRules: true, ForceJoin: "index"},
		{ConventionalPointers: true},
	}
	for ci, opts := range configs {
		got := f.run(q, opts)
		if !equalRows(canonical, got) {
			f.t.Fatalf("%s config %d: plans disagree\nquery: %s\ncanonical (%d): %v\ngot (%d): %v\nplan:\n%s",
				label, ci, q, len(canonical), canonical, len(got), got, f.explain(q, opts))
		}
	}
}

// clientQuery extends a two-table randomQuery with coin flips drawn
// after it: the R–S join may become JOIN … ON, and a third table T
// (optFixture.replica) may join r in the FROM list or by JOIN … ON. An
// ON predicate may carry a summary conjunct, which above a summary join
// reads the summaries merged below it.
func clientQuery(rng *rand.Rand, shared bool) string {
	q := randomQuery(rng, shared)
	head, rest, ok := strings.Cut(q, " FROM R r, S s WHERE ")
	if !ok {
		return q
	}
	where, order, _ := strings.Cut(rest, " ORDER BY ")
	conj := strings.Split(where, " AND ")
	onSummary := func(crossS bool) string {
		switch rng.Intn(3) {
		case 1:
			return fmt.Sprintf(" AND r.$.getSummaryObject('C1').getLabelValue('Disease') >= %d", rng.Intn(6))
		case 2:
			if crossS && shared {
				return " AND r.$.getSummaryObject('C1').getLabelValue('Disease') < s.$.getSummaryObject('C1').getLabelValue('Disease')"
			}
			return fmt.Sprintf(" AND r.$.getSummaryObject('C1').getLabelValue('Other') = %d", rng.Intn(3))
		}
		return ""
	}
	tables, joins := "R r, S s", ""
	if rng.Intn(2) == 0 {
		tables, joins = "R r", " JOIN S s ON r.a = s.x"+onSummary(true)
		kept := conj[:0]
		for _, c := range conj {
			if c != "r.a = s.x" {
				kept = append(kept, c)
			}
		}
		conj = kept
	}
	switch rng.Intn(3) {
	case 1:
		tables += ", T t"
		conj = append(conj, "t.a = r.a")
	case 2:
		joins += " JOIN T t ON t.a = r.a" + onSummary(false)
	}
	q = head + " FROM " + tables + joins
	if len(conj) > 0 {
		q += " WHERE " + strings.Join(conj, " AND ")
	}
	if order != "" {
		q += " ORDER BY " + order
	}
	return q
}

// randomQuery builds a random single- or two-table query.
func randomQuery(rng *rand.Rand, shared bool) string {
	var conj []string
	pick := func(options ...string) string { return options[rng.Intn(len(options))] }

	// 0-3 predicates on r.
	for n := rng.Intn(4); n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			conj = append(conj, fmt.Sprintf("r.a %s %d", pick("=", "<", ">", "<=", ">="), rng.Intn(20)))
		case 1:
			conj = append(conj, fmt.Sprintf("r.b = 'b%d'", rng.Intn(6)))
		case 2:
			conj = append(conj, fmt.Sprintf(
				"r.$.getSummaryObject('C1').getLabelValue('Disease') %s %d",
				pick("=", "<", ">", "<=", ">="), rng.Intn(7)))
		case 3:
			conj = append(conj, fmt.Sprintf(
				"r.$.getSummaryObject('C1').getLabelValue('Other') = %d", rng.Intn(3)))
		}
	}

	twoTables := rng.Intn(2) == 0
	from := "R r"
	if twoTables {
		from = "R r, S s"
		conj = append(conj, "r.a = s.x")
		if rng.Intn(3) == 0 {
			conj = append(conj, fmt.Sprintf("s.z = 'z%d'", rng.Intn(36)+1))
		}
		if shared && rng.Intn(3) == 0 {
			// A genuine summary-join predicate across both sides.
			conj = append(conj, "r.$.getSummaryObject('C1').getLabelValue('Disease') <> s.$.getSummaryObject('C1').getLabelValue('Disease')")
		}
	}

	q := "SELECT r.a FROM " + from
	if twoTables && rng.Intn(2) == 0 {
		q = "SELECT r.a, s.z FROM " + from
	}
	if len(conj) > 0 {
		q += " WHERE " + strings.Join(conj, " AND ")
	}
	switch rng.Intn(3) {
	case 0:
		q += " ORDER BY r.$.getSummaryObject('C1').getLabelValue('Disease')"
		if rng.Intn(2) == 0 {
			q += " DESC"
		}
	case 1:
		q += " ORDER BY r.a"
	}
	return q
}

// TestRandomQueryWithGroupBy fuzzes aggregation queries: grouped results
// must agree across plan configurations, including the merged group
// summaries.
func TestRandomQueryWithGroupBy(t *testing.T) {
	f := newOptFixture(t, 24, 48, false, 21)
	f.buildSummaryIndex(f.r)
	f.s.CreateDataIndex("x")
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		where := ""
		if rng.Intn(2) == 0 {
			where = fmt.Sprintf(
				" WHERE r.$.getSummaryObject('C1').getLabelValue('Disease') >= %d", rng.Intn(4))
		}
		q := "SELECT r.b, count(*), sum(r.a) FROM R r" + where + " GROUP BY r.b"
		canonical := f.run(q, Options{DisableRules: true})
		for _, opts := range []Options{{}, {NoSummaryIndex: true}} {
			if got := f.run(q, opts); !equalRows(canonical, got) {
				t.Fatalf("trial %d: groupby plans disagree\nquery: %s\n%v\nvs\n%v",
					trial, q, canonical, got)
			}
		}
	}
}

// TestChosenAlternativeIsCheapest: every physical choice in a random
// query's plan is the alternative the one cost function prices lowest.
// On the optimized plan, each join's implementation is no dearer than
// its other legal implementations, each Gather's DOP than the other
// DOPs of its pipeline, each access path than the other paths of its
// S, and each data join over a summary join than its rule-11
// reorderings. A rule-11 reordering that was applied no longer shows
// its original in the optimized plan, so the sites of the plan the
// reordering pass receives are checked too.
func TestChosenAlternativeIsCheapest(t *testing.T) {
	for _, shared := range []bool{false, true} {
		f := newOptFixture(t, 18, 36, shared, 11)
		f.buildSummaryIndex(f.r)
		if shared {
			f.buildSummaryIndex(f.s)
		}
		f.buildBaselineIndex(f.r)
		f.s.CreateDataIndex("x")
		f.replica()
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 120; trial++ {
			q := randomQuery(rng, shared)
			if rng.Intn(2) == 0 {
				// A third table joined to r: a data join over the
				// summary join when there is one.
				q = strings.Replace(q, "FROM R r, S s WHERE", "FROM R r, S s, T t WHERE t.a = r.a AND", 1)
			}
			for _, opts := range []Options{{}, {UseBaseline: true}, {MaxParallelWorkers: 4}} {
				f.checkCheapest(q, opts)
			}
		}
	}
}

// checkCheapest runs TestChosenAlternativeIsCheapest's checks on one
// query under opts.
func (f *optFixture) checkCheapest(q string, opts Options) {
	f.t.Helper()
	build := func() (plan.Node, *plan.AliasResolver) {
		stmt, err := sql.Parse(q)
		if err != nil {
			f.t.Fatal(err)
		}
		root, resolver, err := f.builder.Build(stmt.(*sql.SelectStmt))
		if err != nil {
			f.t.Fatal(err)
		}
		return root, resolver
	}
	root, resolver := build()
	rw := &rewriter{env: f.env, opts: opts, resolver: resolver}
	check := func(choice string, chosen plan.Node, alts []plan.Node) {
		c := rw.estimate(chosen).Cost
		for _, alt := range alts {
			if e := rw.estimate(alt).Cost; c > e {
				f.t.Errorf("%s\nopts %+v: %s chosen at cost %.4f over an alternative at %.4f:\n%s\nalternative:\n%s",
					q, opts, choice, c, e, plan.Explain(chosen), plan.Explain(alt))
			}
		}
	}
	implemented := func(alts []plan.Node) []plan.Node {
		out := make([]plan.Node, len(alts))
		for i, alt := range alts {
			out[i] = rw.chooseJoinImpl(alt)
		}
		return out
	}
	var visit func(n plan.Node, fn func(plan.Node))
	visit = func(n plan.Node, fn func(plan.Node)) {
		fn(n)
		for _, c := range n.Children() {
			visit(c, fn)
		}
	}

	visit(Optimize(root, resolver, f.env, opts), func(n plan.Node) {
		switch node := n.(type) {
		case *plan.Join:
			alts, _ := rw.joinImpls(node)
			check("join implementation", node, alts)
			if orders := rw.joinOrders(node); len(orders) > 1 && opts.MaxParallelWorkers <= 1 {
				check("join order", node, implemented(orders[1:]))
			}
		case *plan.GatherNode:
			check("degree of parallelism", node, rw.gathers(node.Child))
		}
		if site, alt := f.scanAlternative(n); site != nil {
			check("access path", site, []plan.Node{alt})
		} else if sel, ok := n.(*plan.Select); ok && plan.ReadsSummaries(sel.Pred) {
			check("access path", sel, rw.accessPaths(sel)[1:])
		}
	})

	root, resolver = build()
	rw.resolver = resolver
	visit(rw.chooseAccessPaths(rw.pushdown(root)), func(n plan.Node) {
		if orders := rw.joinOrders(n); len(orders) > 1 {
			check("join order", rw.chooseJoinImpl(rw.reorderSummaryJoins(n)), implemented(orders))
		}
	})
}

// scanAlternative matches an index access path — an index leaf under
// data selections, under a residual S or none — and returns the S over
// the scan it replaced: the leaf's predicate and the residual over the
// same selections over a scan of the leaf's table. A full-range ordered
// leaf, which sort elimination substitutes for a scan, is no access
// path and returns nil.
func (f *optFixture) scanAlternative(n plan.Node) (site, alt plan.Node) {
	site = n
	var conjuncts []string
	if s, ok := n.(*plan.Select); ok && plan.ReadsSummaries(s.Pred) {
		conjuncts = append(conjuncts, s.Pred.String())
		n = s.Child
	}
	var sigmas []sql.Expr
	for {
		s, ok := n.(*plan.Select)
		if !ok || plan.ReadsSummaries(s.Pred) {
			break
		}
		sigmas = append(sigmas, s.Pred)
		n = s.Child
	}
	var leafPred string
	switch leaf := n.(type) {
	case *plan.SummaryIndexScanNode:
		if leaf.Ordered && leaf.Op == index.OpGe && leaf.Constant == 0 {
			return nil, nil
		}
		leafPred = fmt.Sprintf("%s.$.getSummaryObject('%s').getLabelValue('%s') %s %d",
			leaf.Alias, leaf.Instance, leaf.Label, leaf.Op, leaf.Constant)
	case *plan.BaselineIndexScanNode:
		leafPred = fmt.Sprintf("%s.$.getSummaryObject('%s').getLabelValue('%s') %s %d",
			leaf.Alias, leaf.Instance, leaf.Label, leaf.Op, leaf.Constant)
	default:
		return nil, nil
	}
	t, alias := leafTable(n)
	pred, err := sql.ParseExpr(strings.Join(append([]string{leafPred}, conjuncts...), " AND "))
	if err != nil {
		f.t.Fatal(err)
	}
	alt = plan.NewScan(t, alias)
	for i := len(sigmas) - 1; i >= 0; i-- {
		alt = &plan.Select{Child: alt, Pred: sigmas[i]}
	}
	return site, &plan.Select{Child: alt, Pred: pred}
}
