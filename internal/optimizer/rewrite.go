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
		return rw.placeConjuncts(child, plan.Conjuncts(node.Pred), false)
	case *plan.SummarySelect:
		child := rw.pushdown(node.Child)
		return rw.placeConjuncts(child, plan.Conjuncts(node.Pred), true)
	case *plan.SummaryFilterNode:
		node.Child = rw.pushdown(node.Child)
		return rw.pushFilter(node)
	default:
		return plan.MapChildren(n, rw.pushdown)
	}
}

// placeConjuncts pushes each conjunct as deep as allowed into child,
// stacking the un-pushable remainder above it.
func (rw *rewriter) placeConjuncts(child plan.Node, conjuncts []sql.Expr, summary bool) plan.Node {
	var remainder []sql.Expr
	for _, c := range conjuncts {
		placed, ok := rw.tryPush(child, c, summary)
		if ok {
			child = placed
		} else {
			remainder = append(remainder, c)
		}
	}
	if len(remainder) == 0 {
		return child
	}
	pred := plan.AndAll(remainder)
	if summary {
		var insts []string
		for _, c := range remainder {
			insts = append(insts, plan.Analyze(c, rw.resolver).Instances...)
		}
		return &plan.SummarySelect{Child: child, Pred: pred, Instances: dedupe(insts)}
	}
	return &plan.Select{Child: child, Pred: pred}
}

// tryPush attempts to sink one conjunct below n; it returns the rewritten
// node and whether the push succeeded. Preconditions:
//   - data conjuncts sink into the side holding all their aliases
//     (standard selection pushdown + rule 9 through J);
//   - summary conjuncts additionally require that every instance they
//     reference is absent from the other side (rules 2 and 10), because
//     the join would otherwise merge those objects and change the
//     predicate's input.
func (rw *rewriter) tryPush(n plan.Node, c sql.Expr, summary bool) (plan.Node, bool) {
	switch n.(type) {
	case *plan.Join, *plan.SummaryJoin:
		sides := n.Children()
		side, ok := rw.sideFor(plan.Analyze(c, rw.resolver), sides[0], sides[1], summary)
		if !ok {
			return n, false
		}
		sides[side] = rw.attach(sides[side], c, summary)
		return n.WithChildren(sides), true
	}
	if child, ok := plan.StreamingChild(n); ok {
		if pushed, ok := rw.tryPush(child, c, summary); ok {
			return n.WithChildren([]plan.Node{pushed}), true
		}
	}
	return n, false
}

// attach recursively pushes c into n, stacking it directly above the
// deepest node that accepts it.
func (rw *rewriter) attach(n plan.Node, c sql.Expr, summary bool) plan.Node {
	if pushed, ok := rw.tryPush(n, c, summary); ok {
		return pushed
	}
	if summary {
		info := plan.Analyze(c, rw.resolver)
		return &plan.SummarySelect{Child: n, Pred: c, Instances: info.Instances}
	}
	return &plan.Select{Child: n, Pred: c}
}

// sideFor decides which join input a conjunct may sink into: 0 = left,
// 1 = right. It requires all referenced aliases on one side; summary
// conjuncts additionally require their instances absent from the other
// side.
func (rw *rewriter) sideFor(info *plan.ExprInfo, left, right plan.Node, summary bool) (int, bool) {
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
	switch node := n.(type) {
	case *plan.Scan:
		out = append(out, node.Table)
	case *plan.SummaryIndexScanNode:
		out = append(out, node.Table)
	case *plan.BaselineIndexScanNode:
		out = append(out, node.Table)
	}
	for _, c := range n.Children() {
		out = append(out, tablesIn(c)...)
	}
	return out
}

// --- filter pushdown (rules 7, 8) ------------------------------------------

// pushFilter sinks an F node below joins. Structural predicates
// (instance / type membership) push to both sides (rule 8), restricted
// per side to the instances its tables define (rule 7's precondition is
// then trivially met).
func (rw *rewriter) pushFilter(f *plan.SummaryFilterNode) plan.Node {
	switch j := f.Child.(type) {
	case *plan.Join:
	case *plan.SummaryJoin:
		// F must not drop objects the J predicate needs: only push when
		// the filter keeps every instance the join references.
		if !keepsInstances(f, j.Instances) {
			return f
		}
	default:
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
	switch node := n.(type) {
	case *plan.SummarySelect:
		node.Child = rw.chooseAccessPaths(node.Child)
		return rw.trySummaryIndex(node)
	default:
		return plan.MapChildren(n, rw.chooseAccessPaths)
	}
}

// trySummaryIndex rewrites SummarySelect(pred, Scan) into an index scan
// plus residual predicates. Data selections sitting between S and the
// scan are commuted out of the way (rule 1: Sp(σc(R)) = σc(Sp(R))) and
// re-stacked above the index scan.
func (rw *rewriter) trySummaryIndex(sel *plan.SummarySelect) plan.Node {
	if rw.opts.NoSummaryIndex && !rw.opts.UseBaseline {
		return sel
	}
	var sigmas []*plan.Select
	bottom := sel.Child
	for {
		s, ok := bottom.(*plan.Select)
		if !ok {
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
		return sel
	}
	conjuncts := plan.Conjuncts(sel.Pred)
	bestIdx := -1
	var bestPred *plan.ClassifierPredicate
	for i, c := range conjuncts {
		cp, ok := plan.MatchClassifierPredicate(c)
		if !ok {
			continue
		}
		if cp.Alias != "" && cp.Alias != strings.ToLower(scan.Alias) {
			continue
		}
		if rw.indexFor(scan.Table, cp.Instance) == nil {
			continue
		}
		// Prefer the most selective indexable conjunct.
		if bestPred == nil || rw.selectivity(scan.Table, cp) < rw.selectivity(scan.Table, bestPred) {
			bestIdx, bestPred = i, cp
		}
	}
	if bestPred == nil {
		return sel
	}
	// Cost check: index probe + per-hit fetches vs full scan.
	if !rw.indexBeatsScan(scan.Table, bestPred) {
		return sel
	}
	var out plan.Node = rw.makeIndexLeaf(scan, bestPred)
	// Re-stack commuted data selections (innermost first).
	for i := len(sigmas) - 1; i >= 0; i-- {
		out = &plan.Select{Child: out, Pred: sigmas[i].Pred}
	}
	residual := append(append([]sql.Expr{}, conjuncts[:bestIdx]...), conjuncts[bestIdx+1:]...)
	if len(residual) == 0 {
		return out
	}
	var insts []string
	for _, c := range residual {
		insts = append(insts, plan.Analyze(c, rw.resolver).Instances...)
	}
	return &plan.SummarySelect{Child: out, Pred: plan.AndAll(residual), Instances: dedupe(insts)}
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

// chooseJoinImpl selects index-based joins where the inner side is a
// base table with a data index on the join column. It applies to both
// the data join ⋈ and the summary join J: a J carrying a mixed
// predicate can probe the data equi-conjunct's index and evaluate its
// summary predicates as pre-merge residuals.
func (rw *rewriter) chooseJoinImpl(n plan.Node) plan.Node {
	n = plan.MapChildren(n, rw.chooseJoinImpl)
	if rw.opts.ForceJoin == "nl" {
		return n
	}
	switch j := n.(type) {
	case *plan.Join:
		if j.On == nil {
			return n
		}
		if rw.opts.ForceJoin != "hash" {
			if col, key, residual, ok := rw.findIndexProbe(j.On, j.Right, func() bool { return rw.indexJoinBeatsNL(j) }); ok {
				j.UseIndex = true
				j.IndexColumn = col
				j.OuterKey = key
				j.Residual = residual
				return n
			}
		}
		if rw.opts.ForceJoin == "index" {
			return n
		}
		// Hash join: any orientable equi-conjunct qualifies; it beats a
		// block nested loop whenever |L|·|R| exceeds |L|+|R|, which the
		// cost model checks.
		if lk, rk, residual, ok := rw.findHashKeys(j.On, j.Left, j.Right); ok {
			if rw.opts.ForceJoin == "hash" || rw.hashJoinBeatsNL(j) {
				j.UseHash = true
				j.HashLeft = lk
				j.HashRight = rk
				j.Residual = residual
			}
		}
	case *plan.SummaryJoin:
		if j.Pred == nil {
			return n
		}
		if col, key, residual, ok := rw.findIndexProbe(j.Pred, j.Right, func() bool { return true }); ok {
			j.UseIndex = true
			j.IndexColumn = col
			j.OuterKey = key
			j.Residual = residual
		}
	}
	return n
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
func (rw *rewriter) findIndexProbe(pred sql.Expr, right plan.Node, worthIt func() bool) (string, sql.Expr, sql.Expr, bool) {
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
		if rw.opts.ForceJoin != "index" && !worthIt() {
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

// reorderSummaryJoins applies rule 11: T ⋈c J(R, S) = J(T ⋈c R, S) when
// the summary-join predicate involves no instance on T and c does not
// touch S. Executing the data join first exposes its index access path
// and shrinks the summary join's input.
func (rw *rewriter) reorderSummaryJoins(n plan.Node) plan.Node {
	n = plan.MapChildren(n, rw.reorderSummaryJoins)
	j, ok := n.(*plan.Join)
	if !ok || j.On == nil {
		return n
	}
	// Two orientations: the summary join on the right or on the left.
	if sj, ok := j.Right.(*plan.SummaryJoin); ok {
		if nn := rw.tryRule11(j, j.Left, sj); nn != nil {
			return nn
		}
	}
	if sj, ok := j.Left.(*plan.SummaryJoin); ok {
		if nn := rw.tryRule11(j, j.Right, sj); nn != nil {
			return nn
		}
	}
	return n
}

// tryRule11 rewrites ⋈c(T, J(R, S)) into J(⋈c(T, R), S).
func (rw *rewriter) tryRule11(j *plan.Join, tSide plan.Node, sj *plan.SummaryJoin) plan.Node {
	onInfo := plan.Analyze(j.On, rw.resolver)
	touches := func(n plan.Node) bool {
		for a := range onInfo.Aliases {
			if n.Schema().HasQualifier(a) {
				return true
			}
		}
		return false
	}
	// Precondition: c involves T and R only (not S), and the summary
	// predicates involve no instance defined on T.
	var rSide, sSide plan.Node
	switch {
	case touches(sj.Left) && !touches(sj.Right):
		rSide, sSide = sj.Left, sj.Right
	case touches(sj.Right) && !touches(sj.Left):
		rSide, sSide = sj.Right, sj.Left
	default:
		return nil
	}
	if rw.instancesOnSide(sj.Instances, tSide) {
		return nil
	}
	// Benefit check: only reorder when the data join can use an index on
	// either side (the Figure 15 setting) — otherwise keep the original
	// order.
	if !rw.dataJoinHasIndex(j.On, tSide, rSide) && rw.opts.ForceJoin != "index" {
		return nil
	}
	inner := plan.NewJoin(tSide, rSide, j.On)
	return plan.NewSummaryJoin(inner, sSide, sj.Pred, sj.Instances)
}

// dataJoinHasIndex reports whether the equi-join condition can be
// answered with a data index on either input's join column.
func (rw *rewriter) dataJoinHasIndex(on sql.Expr, a, b plan.Node) bool {
	for _, c := range plan.Conjuncts(on) {
		lc, rc, ok := plan.MatchEquiJoin(c, rw.resolver)
		if !ok {
			continue
		}
		for _, side := range []plan.Node{a, b} {
			scan, identity := leafScan(side)
			if scan == nil || !identity {
				continue
			}
			for _, col := range []*sql.ColumnRef{lc, rc} {
				if strings.EqualFold(qualifierOf(col, rw.resolver), scan.Alias) &&
					scan.Table.DataIndex(col.Name) != nil {
					return true
				}
			}
		}
	}
	return false
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
	case *plan.Join, *plan.SummaryJoin:
		if rw.instancesOnSide([]string{instance}, n.Children()[1]) {
			return n, false
		}
		return under()
	case *plan.SummaryIndexScanNode:
		if (alias == "" || strings.EqualFold(node.Alias, alias)) &&
			strings.EqualFold(node.Instance, instance) && strings.EqualFold(node.Label, label) {
			cp := &plan.ClassifierPredicate{Instance: node.Instance, Label: node.Label,
				Op: node.Op, Constant: node.Constant}
			if !rw.orderPreservingWorthIt(node.Table, cp) {
				// Random order-preserving fetch costs more than the
				// page-ordered fetch plus re-sorting the rows: keep the
				// Sort and fetch in page order.
				return node, false
			}
			node.Ordered = true
			node.FetchSorted = false
			node.Descending = desc
			return node, true
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
		full := &plan.ClassifierPredicate{Instance: instance, Label: label,
			Op: index.OpGe, Constant: 0}
		if !rw.orderPreservingWorthIt(node.Table, full) {
			// A full-range index scan in random-fetch trouble has no
			// edge over the sequential scan + Sort already in the plan.
			return node, false
		}
		// Full-range ordered index scan replaces the sequential scan.
		leaf := plan.NewSummaryIndexScanNode(node.Table, node.Alias, idx, instance, label, index.OpGe, 0)
		leaf.Ordered = true
		leaf.FetchSorted = false
		leaf.Descending = desc
		return leaf, true
	default:
		if _, ok := plan.StreamingChild(n); ok {
			return under()
		}
		return n, false
	}
}

func dedupe(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		k := strings.ToLower(s)
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}
