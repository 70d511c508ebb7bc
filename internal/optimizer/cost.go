package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/plan"
	"repro/internal/sql"
)

// The cost model follows Section 5.2: summary-based operators reuse the
// standard operators' heuristics, with cardinalities estimated from the
// maintained statistics ({Min, Max, NumDistinct, Equi-Width Histogram}
// per classifier label, AvgObjectSize per instance, NumDistinct per data
// column) and I/O counted in page accesses.

// Estimate is a (cardinality, page-I/O cost) pair for a plan node.
type Estimate struct {
	Rows float64
	Cost float64
}

// cpuPerRow charges predicate evaluation relative to a page access.
const cpuPerRow = 0.01

// No-statistics fallback selectivities, the conventional defaults:
// equality behaves like 1/NumDistinct for a moderately distinct column,
// ranges like the standard one-third guess. Using one shared 0.1 for
// both (the old behavior) made cold tables over-prefer the index path
// on range predicates and under-prefer it on equality.
const (
	defaultEqSelectivity    = 0.005
	defaultRangeSelectivity = 1.0 / 3
)

// defaultSelectivity is the no-statistics guess for a classifier
// comparison operator.
func defaultSelectivity(op index.CmpOp) float64 {
	if op == index.OpEq {
		return defaultEqSelectivity
	}
	return defaultRangeSelectivity
}

// selectivity of a classifier predicate from the label's statistics.
// Range predicates are bounded by the label's observed domain [Min, Max]
// on the open side: hard-coding 0 as the lower bound (the old OpLt/OpLe
// behavior) collapses "label < c" to an empty range whenever the domain
// is shifted below zero — the estimate reads 0 rows, so the optimizer
// always picks the index probe even when half the table qualifies.
func (rw *rewriter) selectivity(t *catalog.Table, cp *plan.ClassifierPredicate) float64 {
	ls := t.Stats(cp.Instance).Label(cp.Label)
	if ls.N() == 0 {
		return defaultSelectivity(cp.Op)
	}
	switch cp.Op {
	case index.OpEq:
		return ls.SelectivityEq(cp.Constant)
	case index.OpLt:
		return ls.SelectivityRange(ls.Min(), cp.Constant-1)
	case index.OpLe:
		return ls.SelectivityRange(ls.Min(), cp.Constant)
	case index.OpGt:
		// Symmetric audit of the open upper side: these already bound the
		// range with ls.Max(), the domain's true top.
		return ls.SelectivityRange(cp.Constant+1, ls.Max())
	case index.OpGe:
		return ls.SelectivityRange(cp.Constant, ls.Max())
	}
	return defaultRangeSelectivity
}

// indexBeatsScan compares a Summary-BTree (or baseline) probe against a
// full scan plus filter: probe = log_B(kN) descent + per-hit tuple
// fetches (plus summary-storage probes when propagating); scan = every
// data page + per-tuple summary reads.
func (rw *rewriter) indexBeatsScan(t *catalog.Table, cp *plan.ClassifierPredicate) bool {
	n := float64(t.Len())
	if n == 0 {
		return false
	}
	sel := rw.selectivity(t, cp)
	matches := sel * n
	height := math.Log(math.Max(n, 2)) / math.Log(float64(t.Data.PageCap()))

	perHit := 1.0 // backward pointer: direct heap fetch
	if rw.opts.UseBaseline {
		perHit = 2 + height // normalized row read + OID-index join to the data tuple
	}
	if rw.env.Propagate {
		perHit += 2 // summary-storage probe + read
	}
	indexCost := height + matches*perHit

	// The sequential alternative must fetch every tuple's summary set to
	// evaluate the predicate, whether or not the output propagates
	// summaries — the asymmetry that makes the no-propagation case the
	// index's best case (Figure 13).
	scanCost := float64(t.Data.Pages()) + n*cpuPerRow + n*2
	return indexCost < scanCost
}

// indexJoinBeatsNL compares probing the inner index per outer row with a
// block nested loop over a materialized inner.
func (rw *rewriter) indexJoinBeatsNL(j *plan.Join) bool {
	left := rw.estimate(j.Left)
	right := rw.estimate(j.Right)
	innerScan, _ := leafScan(j.Right)
	if innerScan == nil {
		return false
	}
	n := float64(innerScan.Table.Len())
	height := math.Log(math.Max(n, 2)) / math.Log(float64(innerScan.Table.Data.PageCap()))
	matchesPerProbe := 1.0
	if ci, err := innerScan.Table.Schema.ColIndex("", j.IndexColumn); err == nil && j.IndexColumn != "" {
		if d := innerScan.Table.ColStats[ci].NumDistinct(); d > 0 {
			matchesPerProbe = math.Max(1, n/float64(d))
		}
	}
	indexCost := left.Cost + left.Rows*(height+matchesPerProbe)
	nlCost := left.Cost + right.Cost + left.Rows*right.Rows*cpuPerRow
	return indexCost < nlCost
}

// hashJoinBeatsNL compares a hash join (one pass over each input) with
// the block nested loop's cross-product predicate evaluations.
func (rw *rewriter) hashJoinBeatsNL(j *plan.Join) bool {
	l, r := rw.estimate(j.Left), rw.estimate(j.Right)
	hashCost := (l.Rows + r.Rows) * cpuPerRow * 2
	nlCost := l.Rows * r.Rows * cpuPerRow
	return hashCost < nlCost
}

// estimate computes cardinality and cost bottom-up.
func (rw *rewriter) estimate(n plan.Node) Estimate {
	switch node := n.(type) {
	case *plan.Scan:
		rows := float64(node.Table.Len())
		cost := float64(node.Table.Data.Pages())
		if rw.env.Propagate {
			cost += rows * 2
		}
		return Estimate{Rows: rows, Cost: cost}

	case *plan.SummaryIndexScanNode:
		t := node.Table
		cp := &plan.ClassifierPredicate{Instance: node.Instance, Label: node.Label,
			Op: node.Op, Constant: node.Constant}
		sel := rw.selectivity(t, cp)
		rows := sel * float64(t.Len())
		height := math.Log(math.Max(float64(t.Len()), 2)) / math.Log(float64(t.Data.PageCap()))
		// The heap dereference is priced by fetch mode: page-ordered
		// batching pays one read per distinct page, order-preserving
		// fetch pays per hit once the working set outgrows the pool
		// (see fetchCosts).
		orderedCost, sortedCost := rw.fetchCosts(t, rows)
		fetch := sortedCost
		if !node.FetchSorted {
			fetch = orderedCost
		}
		cost := height + fetch
		if rw.env.Propagate {
			cost += rows * 2 // summary-storage probe + read per hit
		}
		return Estimate{Rows: rows, Cost: cost}

	case *plan.BaselineIndexScanNode:
		t := node.Table
		cp := &plan.ClassifierPredicate{Instance: node.Instance, Label: node.Label,
			Op: node.Op, Constant: node.Constant}
		sel := rw.selectivity(t, cp)
		rows := sel * float64(t.Len())
		height := math.Log(math.Max(float64(t.Len()), 2)) / math.Log(float64(t.Data.PageCap()))
		perHit := 2 + height
		if rw.env.Propagate {
			perHit += 2
		}
		return Estimate{Rows: rows, Cost: height + rows*perHit}

	case *plan.SummaryProject:
		child := rw.estimate(node.Child)
		return Estimate{Rows: child.Rows, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.Select:
		child := rw.estimate(node.Child)
		sel := rw.predSelectivity(node.Pred, node.Child)
		return Estimate{Rows: child.Rows * sel, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.SummarySelect:
		child := rw.estimate(node.Child)
		sel := rw.predSelectivity(node.Pred, node.Child)
		return Estimate{Rows: child.Rows * sel, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.SummaryFilterNode:
		child := rw.estimate(node.Child)
		return Estimate{Rows: child.Rows, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.Join:
		l, r := rw.estimate(node.Left), rw.estimate(node.Right)
		sel := rw.joinSelectivity(node.On, node.Left, node.Right)
		rows := l.Rows * r.Rows * sel
		var cost float64
		if node.UseIndex {
			cost = l.Cost + l.Rows*3
		} else {
			cost = l.Cost + r.Cost + l.Rows*r.Rows*cpuPerRow
		}
		return Estimate{Rows: rows, Cost: cost}

	case *plan.SummaryJoin:
		l, r := rw.estimate(node.Left), rw.estimate(node.Right)
		sel := rw.joinSelectivity(node.Pred, node.Left, node.Right)
		return Estimate{Rows: l.Rows * r.Rows * sel,
			Cost: l.Cost + r.Cost + l.Rows*r.Rows*cpuPerRow}

	case *plan.SortNode:
		child := rw.estimate(node.Child)
		if node.Eliminated {
			return child
		}
		n := math.Max(child.Rows, 2)
		return Estimate{Rows: child.Rows, Cost: child.Cost + n*math.Log2(n)*cpuPerRow}

	case *plan.GroupByNode:
		child := rw.estimate(node.Child)
		return Estimate{Rows: math.Max(1, child.Rows/10), Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.ProjectNode:
		child := rw.estimate(node.Child)
		return Estimate{Rows: child.Rows, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.DistinctNode:
		child := rw.estimate(node.Child)
		return Estimate{Rows: math.Max(1, child.Rows/2), Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.LimitNode:
		child := rw.estimate(node.Child)
		rows := math.Min(child.Rows, float64(node.N))
		return Estimate{Rows: rows, Cost: child.Cost}

	case *plan.GatherNode:
		// The fragment's work divides across the workers; each worker
		// pays the modeled startup overhead. This is the same formula
		// chooseDOP minimized, so EXPLAIN shows why the DOP was picked.
		child := rw.estimate(node.Child)
		d := math.Max(1, float64(node.DOP))
		return Estimate{Rows: child.Rows, Cost: child.Cost/d + parallelStartupCost*d}

	default:
		return Estimate{Rows: 1000, Cost: 1000}
	}
}

// predSelectivity estimates a predicate's selectivity against the
// subtree's tables: classifier predicates use the label histograms
// (the S-operator heuristic of Section 5.2); data equality predicates
// use 1/NumDistinct; everything else defaults to 1/3 per conjunct.
func (rw *rewriter) predSelectivity(pred sql.Expr, under plan.Node) float64 {
	sel := 1.0
	tables := tablesIn(under)
	for _, c := range plan.Conjuncts(pred) {
		if cp, ok := plan.MatchClassifierPredicate(c); ok {
			s := defaultSelectivity(cp.Op)
			for _, t := range tables {
				if t.HasInstance(cp.Instance) {
					s = rw.selectivity(t, cp)
					break
				}
			}
			sel *= s
			continue
		}
		if b, ok := c.(*sql.Binary); ok && b.Op == sql.OpEq {
			if cr, ok := b.L.(*sql.ColumnRef); ok {
				sel *= rw.columnEqSelectivity(cr, tables)
				continue
			}
			if cr, ok := b.R.(*sql.ColumnRef); ok {
				sel *= rw.columnEqSelectivity(cr, tables)
				continue
			}
		}
		sel *= 1.0 / 3
	}
	return sel
}

func (rw *rewriter) columnEqSelectivity(cr *sql.ColumnRef, tables []*catalog.Table) float64 {
	for _, t := range tables {
		if ci, err := t.Schema.ColIndex("", cr.Name); err == nil {
			if s := t.ColStats[ci].SelectivityEq(); s > 0 {
				return s
			}
		}
	}
	return 0.1
}

// joinSelectivity uses the standard equi-join heuristic
// |R ⋈ S| = |R|·|S| / max(V(a,R), V(b,S)); non-equi predicates default
// to 1/3.
func (rw *rewriter) joinSelectivity(on sql.Expr, left, right plan.Node) float64 {
	if on == nil {
		return 1
	}
	sel := 1.0
	for _, c := range plan.Conjuncts(on) {
		if lc, rc, ok := plan.MatchEquiJoin(c, rw.resolver); ok {
			d := math.Max(rw.distinctOf(lc, left, right), rw.distinctOf(rc, left, right))
			if d > 0 {
				sel *= 1 / d
				continue
			}
		}
		sel *= 1.0 / 3
	}
	return sel
}

func (rw *rewriter) distinctOf(cr *sql.ColumnRef, sides ...plan.Node) float64 {
	for _, side := range sides {
		for _, t := range tablesIn(side) {
			if ci, err := t.Schema.ColIndex("", cr.Name); err == nil {
				if d := t.ColStats[ci].NumDistinct(); d > 0 {
					return float64(d)
				}
			}
		}
	}
	return 0
}

// EstimateNode exposes the cost model (for EXPLAIN and tests).
func EstimateNode(n plan.Node, r *plan.AliasResolver, env *Env, opts Options) Estimate {
	rw := &rewriter{env: env, opts: opts, resolver: r}
	return rw.estimate(n)
}
