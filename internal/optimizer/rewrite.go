package optimizer

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/sql"
)

// rewriter applies the rule-based transformations.
type rewriter struct {
	env      *Env
	opts     Options
	resolver *plan.AliasResolver
}

// --- selection pushdown (rules 1, 2, 9, 10) --------------------------------

// pushdown walks the tree, collecting σ/S conjuncts and re-attaching
// each as low as its rule preconditions allow.
func (rw *rewriter) pushdown(n plan.Node) plan.Node {
	switch node := n.(type) {
	case *plan.Select:
		child := rw.pushdown(node.Child)
		return rw.placeConjuncts(child, plan.Conjuncts(node.Pred))
	case *plan.SummaryFilterNode:
		node.Child = rw.pushdown(node.Child)
		return rw.pushFilter(node)
	default:
		return plan.MapChildren(n, rw.pushdown)
	}
}

// placeConjuncts pushes each conjunct as deep as allowed into child,
// stacking the un-pushable remainder above it.
func (rw *rewriter) placeConjuncts(child plan.Node, conjuncts []sql.Expr) plan.Node {
	var remainder []sql.Expr
	for _, c := range conjuncts {
		placed, ok := rw.tryPush(child, c)
		if ok {
			child = placed
		} else {
			remainder = append(remainder, c)
		}
	}
	if len(remainder) == 0 {
		return child
	}
	return &plan.Select{Child: child, Pred: plan.AndAll(remainder)}
}

// tryPush attempts to sink one conjunct below n; it returns the rewritten
// node and whether the push succeeded. Preconditions:
//   - data conjuncts sink into the side holding all their aliases
//     (standard selection pushdown + rule 9 through J);
//   - summary conjuncts additionally require that every instance they
//     reference is absent from the other side (rules 2 and 10), because
//     the join would otherwise merge those objects and change the
//     predicate's input.
func (rw *rewriter) tryPush(n plan.Node, c sql.Expr) (plan.Node, bool) {
	if j, ok := n.(*plan.Join); ok {
		side, ok := rw.sideFor(c, j.Left, j.Right)
		if !ok {
			return n, false
		}
		sides := j.Children()
		sides[side] = rw.attach(sides[side], c)
		return j.WithChildren(sides), true
	}
	if child, ok := plan.StreamingChild(n); ok {
		if pushed, ok := rw.tryPush(child, c); ok {
			return n.WithChildren([]plan.Node{pushed}), true
		}
	}
	return n, false
}

// attach recursively pushes c into n, stacking it directly above the
// deepest node that accepts it.
func (rw *rewriter) attach(n plan.Node, c sql.Expr) plan.Node {
	if pushed, ok := rw.tryPush(n, c); ok {
		return pushed
	}
	return &plan.Select{Child: n, Pred: c}
}

// sideFor decides which join input a conjunct may sink into: 0 = left,
// 1 = right. It requires all referenced aliases on one side; summary
// conjuncts additionally require their instances absent from the other
// side.
func (rw *rewriter) sideFor(c sql.Expr, left, right plan.Node) (int, bool) {
	info, summary := plan.Analyze(c, rw.resolver), plan.ReadsSummaries(c)
	leftHasAll, rightHasAll := true, true
	for a := range info.Aliases {
		if !left.Schema().HasQualifier(a) {
			leftHasAll = false
		}
		if !right.Schema().HasQualifier(a) {
			rightHasAll = false
		}
	}
	if len(info.Aliases) == 0 {
		return 0, false
	}
	switch {
	case leftHasAll && !rightHasAll:
		if summary && rw.instancesOnSide(info.Instances, right) {
			return 0, false
		}
		return 0, true
	case rightHasAll && !leftHasAll:
		if summary && rw.instancesOnSide(info.Instances, left) {
			return 0, false
		}
		return 1, true
	default:
		return 0, false
	}
}

// instancesOnSide reports whether any of the instances is linked to a
// table inside the subtree — the negation of the "p is on instances in R
// not in S" precondition.
func (rw *rewriter) instancesOnSide(instances []string, n plan.Node) bool {
	if len(instances) == 0 {
		// Unknown instances (e.g. positional access): be conservative.
		return true
	}
	for _, t := range tablesIn(n) {
		for _, inst := range instances {
			if t.HasInstance(inst) {
				return true
			}
		}
	}
	return false
}

func tablesIn(n plan.Node) []*catalog.Table {
	var out []*catalog.Table
	if t, _ := leafTable(n); t != nil {
		out = append(out, t)
	}
	for _, c := range n.Children() {
		out = append(out, tablesIn(c)...)
	}
	return out
}

// leafTable returns the table and alias a base-table leaf reads, or nil
// for any other node.
func leafTable(n plan.Node) (*catalog.Table, string) {
	switch leaf := n.(type) {
	case *plan.Scan:
		return leaf.Table, leaf.Alias
	case *plan.SummaryIndexScanNode:
		return leaf.Table, leaf.Alias
	case *plan.BaselineIndexScanNode:
		return leaf.Table, leaf.Alias
	}
	return nil, ""
}

// --- filter pushdown (rules 7, 8) ------------------------------------------

// pushFilter sinks an F node below joins. Structural predicates
// (instance / type membership) push to both sides (rule 8), restricted
// per side to the instances its tables define (rule 7's precondition is
// then trivially met).
func (rw *rewriter) pushFilter(f *plan.SummaryFilterNode) plan.Node {
	j, ok := f.Child.(*plan.Join)
	if !ok {
		return f
	}
	// F must not drop objects a J predicate needs: only push when the
	// filter keeps every instance the join references.
	if plan.ReadsSummaries(j.On) && !keepsInstances(f, plan.Analyze(j.On, rw.resolver).Instances) {
		return f
	}
	return plan.MapChildren(f.Child, func(side plan.Node) plan.Node {
		return rw.pushFilter(&plan.SummaryFilterNode{Child: side, Instances: f.Instances, Types: f.Types})
	})
}

func keepsInstances(f *plan.SummaryFilterNode, needed []string) bool {
	if len(f.Types) > 0 {
		return false // type filters may drop needed objects; be safe
	}
	if len(f.Instances) == 0 {
		return true
	}
	kept := map[string]bool{}
	for _, i := range f.Instances {
		kept[strings.ToLower(i)] = true
	}
	for _, n := range needed {
		if !kept[strings.ToLower(n)] {
			return false
		}
	}
	return true
}

// --- access-path selection ---------------------------------------------------

// chooseAccessPaths converts S-above-leaf classifier predicates into
// index scans when an index exists and the cost model favors it.
func (rw *rewriter) chooseAccessPaths(n plan.Node) plan.Node {
	sel, ok := n.(*plan.Select)
	if !ok || !plan.ReadsSummaries(sel.Pred) {
		return plan.MapChildren(n, rw.chooseAccessPaths)
	}
	sel.Child = rw.chooseAccessPaths(sel.Child)
	return rw.trySummaryIndex(sel)
}

// trySummaryIndex replaces S(pred, Scan) by the access path the cost
// model prices lowest.
func (rw *rewriter) trySummaryIndex(sel *plan.Select) plan.Node {
	alts := rw.accessPaths(sel)
	return alts[rw.cheapest(alts...)]
}

// accessPaths lists sel's legal access paths: sel itself (the S over
// the scan), and one index subtree per indexable conjunct — the leaf
// answering it, the data selections sitting between S and the scan
// commuted out of the way (rule 1: Sp(σc(R)) = σc(Sp(R))) and re-stacked
// above the leaf (innermost first), and the remaining conjuncts as a
// residual S.
func (rw *rewriter) accessPaths(sel *plan.Select) []plan.Node {
	alts := []plan.Node{sel}
	if rw.opts.NoSummaryIndex && !rw.opts.UseBaseline {
		return alts
	}
	var sigmas []*plan.Select
	bottom := sel.Child
	for {
		s, ok := bottom.(*plan.Select)
		if !ok || plan.ReadsSummaries(s.Pred) {
			break
		}
		sigmas = append(sigmas, s)
		bottom = s.Child
	}
	scan, identityEffects := leafScan(bottom)
	if scan == nil || !identityEffects {
		// A non-identity summary-effect projection changes the objects
		// the predicate sees; the index (built over stored objects) can
		// not answer it.
		return alts
	}
	conjuncts := plan.Conjuncts(sel.Pred)
	for i, c := range conjuncts {
		cp, ok := plan.MatchClassifierPredicate(c)
		if !ok || (cp.Alias != "" && cp.Alias != strings.ToLower(scan.Alias)) ||
			rw.indexFor(scan.Table, cp.Instance) == nil {
			continue
		}
		var out plan.Node = rw.makeIndexLeaf(scan, cp)
		for j := len(sigmas) - 1; j >= 0; j-- {
			out = &plan.Select{Child: out, Pred: sigmas[j].Pred}
		}
		residual := append(append([]sql.Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
		if len(residual) > 0 {
			out = &plan.Select{Child: out, Pred: plan.AndAll(residual)}
		}
		alts = append(alts, out)
	}
	return alts
}

// cheapest returns the position of the alternative the cost model
// prices lowest, the earliest of equals. Every physical choice the
// optimizer makes goes through it.
func (rw *rewriter) cheapest(alts ...plan.Node) int {
	if len(alts) == 1 {
		return 0
	}
	best, bestCost := 0, rw.estimate(alts[0]).Cost
	for i, alt := range alts[1:] {
		if c := rw.estimate(alt).Cost; c < bestCost {
			best, bestCost = i+1, c
		}
	}
	return best
}

func (rw *rewriter) makeIndexLeaf(scan *plan.Scan, cp *plan.ClassifierPredicate) plan.Node {
	if rw.opts.UseBaseline {
		if bidx := rw.env.BaselineIdx(scan.Table.Name, cp.Instance); bidx != nil {
			n := plan.NewBaselineIndexScanNode(scan.Table, scan.Alias, bidx, cp.Instance, cp.Label, cp.Op, cp.Constant)
			n.Reconstruct = rw.opts.BaselineReconstruct
			return n
		}
	}
	sidx := rw.env.SummaryIdx(scan.Table.Name, cp.Instance)
	return plan.NewSummaryIndexScanNode(scan.Table, scan.Alias, sidx, cp.Instance, cp.Label, cp.Op, cp.Constant)
}

// indexFor returns whichever index the options select for an instance.
func (rw *rewriter) indexFor(t *catalog.Table, instance string) any {
	if rw.opts.UseBaseline {
		if idx := rw.env.BaselineIdx(t.Name, instance); idx != nil {
			return idx
		}
		return nil
	}
	if rw.opts.NoSummaryIndex {
		return nil
	}
	if idx := rw.env.SummaryIdx(t.Name, instance); idx != nil {
		return idx
	}
	return nil
}

// leafScan unwraps SummaryProject wrappers, reporting whether they are
// identity (no effect elimination). Returns nil when the subtree is not
// a bare scan.
func leafScan(n plan.Node) (*plan.Scan, bool) {
	switch node := n.(type) {
	case *plan.Scan:
		return node, true
	case *plan.SummaryProject:
		scan, _ := leafScan(node.Child)
		if scan == nil {
			return nil, false
		}
		identity := len(node.Kept) >= scan.Table.Schema.Len()
		return scan, identity
	default:
		return nil, false
	}
}

// --- join implementation -----------------------------------------------------

// chooseJoinImpl gives each join the cheapest of its legal
// implementations, or the one ForceJoin pins.
func (rw *rewriter) chooseJoinImpl(n plan.Node) plan.Node {
	n = plan.MapChildren(n, rw.chooseJoinImpl)
	alts, forced := rw.joinImpls(n)
	switch {
	case alts == nil:
		return n
	case forced:
		return alts[len(alts)-1]
	}
	return alts[rw.cheapest(alts...)]
}

// joinImpls lists the legal implementations of a join, the block nested
// loop first: an index probe of the inner side's data index on the join
// column, and a hash join on an equi-conjunct. A J — a join whose
// predicate reads summaries — qualifies for the probe, evaluating its
// summary conjuncts as pre-merge residuals, but has no hash
// implementation, so ForceJoin "hash" does not pin it. ForceJoin
// narrows the list to the nested loop and its own implementation where
// that is legal; forced reports that the last alternative is then the
// one to take. The list is nil for any node but a join.
func (rw *rewriter) joinImpls(n plan.Node) (alts []plan.Node, forced bool) {
	j, ok := n.(*plan.Join)
	if !ok {
		return nil, false
	}
	nl := plan.NewJoin(j.Left, j.Right, j.On)
	alts = []plan.Node{nl}
	force := rw.opts.ForceJoin
	summary := plan.ReadsSummaries(j.On)
	if summary && force == "hash" {
		force = ""
	}
	if j.On == nil || force == "nl" {
		return alts, false
	}
	if col, key, residual, ok := rw.findIndexProbe(j.On, j.Right); ok && force != "hash" {
		idx := *nl
		idx.UseIndex, idx.IndexColumn, idx.OuterKey, idx.Residual = true, col, key, residual
		alts = append(alts, &idx)
	}
	if lk, rk, residual, ok := rw.findHashKeys(j.On, j.Left, j.Right); ok && !summary && force != "index" {
		hash := *nl
		hash.UseHash, hash.HashLeft, hash.HashRight, hash.Residual = true, lk, rk, residual
		alts = append(alts, &hash)
	}
	return alts, force == "index" || force == "hash"
}

// findHashKeys locates an orientable data equi-conjunct for a hash
// join, returning (leftKey, rightKey, residual).
func (rw *rewriter) findHashKeys(pred sql.Expr, left, right plan.Node) (sql.Expr, sql.Expr, sql.Expr, bool) {
	for _, c := range plan.Conjuncts(pred) {
		lc, rc, ok := plan.MatchEquiJoin(c, rw.resolver)
		if !ok {
			continue
		}
		lk, rk, ok := exec.OrientEquiKeys(lc, rc, left.Schema(), right.Schema())
		if !ok {
			continue
		}
		var residual []sql.Expr
		for _, other := range plan.Conjuncts(pred) {
			if other != c {
				residual = append(residual, other)
			}
		}
		return lk, rk, plan.AndAll(residual), true
	}
	return nil, nil, nil, false
}

// findIndexProbe locates a data equi-conjunct whose inner column is
// indexed; it returns the probe column, the outer key expression, and
// the residual predicate.
func (rw *rewriter) findIndexProbe(pred sql.Expr, right plan.Node) (string, sql.Expr, sql.Expr, bool) {
	innerScan, identity := leafScan(right)
	if innerScan == nil || !identity {
		return "", nil, nil, false
	}
	for _, c := range plan.Conjuncts(pred) {
		lc, rc, ok := plan.MatchEquiJoin(c, rw.resolver)
		if !ok {
			continue
		}
		var innerCol, outerCol *sql.ColumnRef
		if strings.EqualFold(qualifierOf(lc, rw.resolver), innerScan.Alias) {
			innerCol, outerCol = lc, rc
		} else if strings.EqualFold(qualifierOf(rc, rw.resolver), innerScan.Alias) {
			innerCol, outerCol = rc, lc
		} else {
			continue
		}
		if innerScan.Table.DataIndex(innerCol.Name) == nil {
			continue
		}
		var residual []sql.Expr
		for _, other := range plan.Conjuncts(pred) {
			if other != c {
				residual = append(residual, other)
			}
		}
		return innerCol.Name, outerCol, plan.AndAll(residual), true
	}
	return "", nil, nil, false
}

func qualifierOf(c *sql.ColumnRef, r *plan.AliasResolver) string {
	if c.Qualifier != "" {
		return c.Qualifier
	}
	return r.OwnerOf(c.Name)
}

// --- rule 11: data/summary join reordering -----------------------------------

// reorderSummaryJoins applies rule 11 where the cost model prices the
// reordered subtree — each with its joins' implementations chosen —
// below the original. Executing the data join first can expose its
// index access path and shrink the summary join's input.
func (rw *rewriter) reorderSummaryJoins(n plan.Node) plan.Node {
	n = plan.MapChildren(n, rw.reorderSummaryJoins)
	alts := rw.joinOrders(n)
	if len(alts) == 1 {
		return n
	}
	impls := make([]plan.Node, len(alts))
	for i, alt := range alts {
		impls[i] = rw.chooseJoinImpl(alt)
	}
	return alts[rw.cheapest(impls...)]
}

// joinOrders lists n and, when n is a data join over a summary join
// (on either side), its rule-11 reorderings: T ⋈c J(R, S) =
// J(T ⋈c R, S) when c involves T and R only (not S) and the summary
// predicates involve no instance defined on T. A join whose predicate
// reads summaries is itself a J — its r.$ reads the set merged below
// it — and is never reordered.
func (rw *rewriter) joinOrders(n plan.Node) []plan.Node {
	alts := []plan.Node{n}
	j, ok := n.(*plan.Join)
	if !ok || j.On == nil || plan.ReadsSummaries(j.On) {
		return alts
	}
	onInfo := plan.Analyze(j.On, rw.resolver)
	touches := func(n plan.Node) bool {
		for a := range onInfo.Aliases {
			if n.Schema().HasQualifier(a) {
				return true
			}
		}
		return false
	}
	for _, sides := range [][2]plan.Node{{j.Left, j.Right}, {j.Right, j.Left}} {
		tSide := sides[0]
		sj, ok := sides[1].(*plan.Join)
		if !ok || !plan.ReadsSummaries(sj.On) ||
			rw.instancesOnSide(plan.Analyze(sj.On, rw.resolver).Instances, tSide) {
			continue
		}
		switch {
		case touches(sj.Left) && !touches(sj.Right):
			alts = append(alts, plan.NewJoin(plan.NewJoin(tSide, sj.Left, j.On), sj.Right, sj.On))
		case touches(sj.Right) && !touches(sj.Left):
			alts = append(alts, plan.NewJoin(plan.NewJoin(tSide, sj.Right, j.On), sj.Left, sj.On))
		}
	}
	return alts
}

// --- sort elimination (rules 3–6) ---------------------------------------------

// eliminateSorts removes a summary-based sort when a Summary-BTree can
// deliver the interesting order and the subtree preserves it.
func (rw *rewriter) eliminateSorts(n plan.Node) plan.Node {
	n = plan.MapChildren(n, rw.eliminateSorts)
	s, ok := n.(*plan.SortNode)
	if !ok || len(s.Keys) != 1 || !s.SummaryBased || rw.opts.NoSummaryIndex || rw.opts.UseBaseline {
		return n
	}
	alias, instance, label, ok := plan.MatchLabelValueExpr(s.Keys[0].Expr)
	if !ok {
		return n
	}
	if child, ok := rw.establishOrder(s.Child, alias, instance, label, s.Keys[0].Desc); ok {
		s.Child = child
		s.Eliminated = true
	}
	return s
}

// establishOrder walks order-preserving operators down to alias's access
// path and, when possible, converts it to an ordered index scan,
// returning the rewritten subtree. Preconditions mirror rules 3–6: σ, S,
// and F preserve order; joins preserve the OUTER (left) input's order
// provided no relation on the inner side defines the instance (else the
// merge would reshuffle counts).
func (rw *rewriter) establishOrder(n plan.Node, alias, instance, label string, desc bool) (plan.Node, bool) {
	// under rewrites n's first input, the one whose order n preserves.
	under := func() (plan.Node, bool) {
		kids := n.Children()
		first, ok := rw.establishOrder(kids[0], alias, instance, label, desc)
		if !ok {
			return n, false
		}
		kids[0] = first
		return n.WithChildren(kids), true
	}
	switch node := n.(type) {
	case *plan.SummaryProject:
		// A non-identity effect projection may change the counts the
		// sort key reads; the stored-object order no longer applies.
		if scan, identity := leafScan(node); scan == nil || !identity {
			return node, false
		}
		return under()
	case *plan.Join:
		if rw.instancesOnSide([]string{instance}, n.Children()[1]) {
			return n, false
		}
		return under()
	case *plan.SummaryIndexScanNode:
		if (alias == "" || strings.EqualFold(node.Alias, alias)) &&
			strings.EqualFold(node.Instance, instance) && strings.EqualFold(node.Label, label) {
			return rw.orderedFetch(node, desc)
		}
		return node, false
	case *plan.Scan:
		if alias != "" && !strings.EqualFold(node.Alias, alias) {
			return node, false
		}
		idx := rw.env.SummaryIdx(node.Table.Name, instance)
		if idx == nil {
			return node, false
		}
		// A full-range ordered index scan replaces the sequential scan
		// when its fetch is cheap enough to stand in for the Sort.
		full := plan.NewSummaryIndexScanNode(node.Table, node.Alias, idx, instance, label, index.OpGe, 0)
		if leaf, ok := rw.orderedFetch(full, desc); ok {
			return leaf, true
		}
		return node, false
	default:
		if _, ok := plan.StreamingChild(n); ok {
			return under()
		}
		return n, false
	}
}
