package optimizer

import (
	"math"
	"strings"

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

// summaryReads charges fetching a summary set for each of rows leaf
// rows: a summary-storage probe plus a read. A leaf pays it whenever
// compile attaches its sets, i.e. when something at or above it needs
// summaries (see childNeed).
func summaryReads(rows float64, need bool) float64 {
	if need {
		return rows * 2
	}
	return 0
}

// descentHeight is the modeled root-to-leaf descent of an index over
// t: log base page capacity of its row count.
func descentHeight(t *catalog.Table) float64 {
	return math.Log(math.Max(float64(t.Len()), 2)) / math.Log(float64(t.Data.PageCap()))
}

// indexHits estimates the rows of t an index leaf's classifier
// predicate selects.
func (rw *rewriter) indexHits(t *catalog.Table, instance, label string, op index.CmpOp, c int) float64 {
	cp := &plan.ClassifierPredicate{Instance: instance, Label: label, Op: op, Constant: c}
	return rw.selectivity(t, cp) * float64(t.Len())
}

// estimate prices a plan as compile would run it at the root of a
// statement: it is the one cost function, both for EXPLAIN and for
// every physical choice the optimizer makes between alternatives.
func (rw *rewriter) estimate(n plan.Node) Estimate {
	return rw.estimateAt(n, rw.env.Propagate)
}

// estimateAt computes cardinality and cost bottom-up; need reports
// whether operators above n read the summary sets of n's rows, as in
// compile.
func (rw *rewriter) estimateAt(n plan.Node, need bool) Estimate {
	below := childNeed(n, need)
	switch node := n.(type) {
	case *plan.Scan:
		rows := float64(node.Table.Len())
		return Estimate{Rows: rows, Cost: float64(node.Table.Data.Pages()) + summaryReads(rows, need)}

	case *plan.SummaryIndexScanNode:
		t := node.Table
		rows := rw.indexHits(t, node.Instance, node.Label, node.Op, node.Constant)
		// The heap dereference is priced by fetch mode: page-ordered
		// batching pays one read per distinct page, order-preserving
		// fetch pays per hit once the working set outgrows the pool
		// (see fetchCosts).
		orderedCost, sortedCost := rw.fetchCosts(t, rows)
		fetch := sortedCost
		if !node.FetchSorted {
			fetch = orderedCost
		}
		return Estimate{Rows: rows, Cost: descentHeight(t) + fetch + summaryReads(rows, need)}

	case *plan.BaselineIndexScanNode:
		t := node.Table
		rows := rw.indexHits(t, node.Instance, node.Label, node.Op, node.Constant)
		height := descentHeight(t)
		// Per hit: the normalized row read plus the OID-index join to
		// the data tuple.
		return Estimate{Rows: rows, Cost: height + rows*(2+height) + summaryReads(rows, need)}

	case *plan.SummaryProject:
		child := rw.estimateAt(node.Child, below)
		return Estimate{Rows: child.Rows, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.Select:
		child := rw.estimateAt(node.Child, below)
		sel := rw.predSelectivity(node.Pred, node.Child)
		return Estimate{Rows: child.Rows * sel, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.SummaryFilterNode:
		child := rw.estimateAt(node.Child, below)
		return Estimate{Rows: child.Rows, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.Join:
		return rw.joinEstimate(node, below)

	case *plan.SortNode:
		child := rw.estimateAt(node.Child, below)
		if node.Eliminated {
			return child
		}
		n := math.Max(child.Rows, 2)
		return Estimate{Rows: child.Rows, Cost: child.Cost + n*math.Log2(n)*cpuPerRow}

	case *plan.GroupByNode:
		child := rw.estimateAt(node.Child, below)
		return Estimate{Rows: math.Max(1, child.Rows/10), Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.ProjectNode:
		child := rw.estimateAt(node.Child, below)
		return Estimate{Rows: child.Rows, Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.DistinctNode:
		child := rw.estimateAt(node.Child, below)
		return Estimate{Rows: math.Max(1, child.Rows/2), Cost: child.Cost + child.Rows*cpuPerRow}

	case *plan.LimitNode:
		child := rw.estimateAt(node.Child, below)
		rows := math.Min(child.Rows, float64(node.N))
		return Estimate{Rows: rows, Cost: child.Cost}

	case *plan.GatherNode:
		// The fragment's work divides across the workers; each worker
		// pays the modeled startup overhead.
		child := rw.estimateAt(node.Child, below)
		d := math.Max(1, float64(node.DOP))
		return Estimate{Rows: child.Rows, Cost: child.Cost/d + parallelStartupCost*d}

	default:
		return Estimate{Rows: 1000, Cost: 1000}
	}
}

// joinEstimate prices a data or summary join as its implementation
// runs: an index join descends the inner data index once per outer row
// and reads the inner rows sharing the probed key; a hash join passes
// once over each input, building and probing; a block nested loop
// evaluates the predicate on the cross product.
func (rw *rewriter) joinEstimate(j *plan.Join, need bool) Estimate {
	l, r := rw.estimateAt(j.Left, need), rw.estimateAt(j.Right, need)
	rows := l.Rows * r.Rows * rw.joinSelectivity(j.On, j.Left, j.Right)
	switch {
	case j.UseIndex:
		inner, _ := leafScan(j.Right)
		return Estimate{Rows: rows, Cost: l.Cost + l.Rows*(descentHeight(inner.Table)+rowsPerKey(inner.Table, j.IndexColumn))}
	case j.UseHash:
		return Estimate{Rows: rows, Cost: l.Cost + r.Cost + 2*cpuPerRow*(l.Rows+r.Rows)}
	}
	return Estimate{Rows: rows, Cost: l.Cost + r.Cost + l.Rows*r.Rows*cpuPerRow}
}

// rowsPerKey is the average number of t's rows sharing one value of
// column col: |t| / NumDistinct(col), at least 1.
func rowsPerKey(t *catalog.Table, col string) float64 {
	if ci, err := t.Schema.ColIndex("", col); err == nil {
		if d := t.ColStats[ci].NumDistinct(); d > 0 {
			return math.Max(1, float64(t.Len())/float64(d))
		}
	}
	return 1
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
				sel *= rw.columnEqSelectivity(cr, under)
				continue
			}
			if cr, ok := b.R.(*sql.ColumnRef); ok {
				sel *= rw.columnEqSelectivity(cr, under)
				continue
			}
		}
		sel *= 1.0 / 3
	}
	return sel
}

func (rw *rewriter) columnEqSelectivity(cr *sql.ColumnRef, under plan.Node) float64 {
	if cs := rw.columnStats(cr, under); cs != nil {
		if s := cs.SelectivityEq(); s > 0 {
			return s
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
	if cs := rw.columnStats(cr, sides...); cs != nil {
		return float64(cs.NumDistinct())
	}
	return 0
}

// columnStats resolves a column reference to the statistics of the
// column in the table it names among the leaves under the subtrees:
// the leaf whose alias is the reference's qualifier, or its owner by
// the resolver when unqualified (any leaf with the column when neither
// settles it).
func (rw *rewriter) columnStats(cr *sql.ColumnRef, under ...plan.Node) *catalog.ColumnStats {
	alias := cr.Qualifier
	if alias == "" && rw.resolver != nil {
		alias = rw.resolver.OwnerOf(cr.Name)
	}
	for _, n := range under {
		if cs := leafColumnStats(n, alias, cr.Name); cs != nil {
			return cs
		}
	}
	return nil
}

func leafColumnStats(n plan.Node, alias, col string) *catalog.ColumnStats {
	if t, a := leafTable(n); t != nil && (alias == "" || strings.EqualFold(a, alias)) {
		if ci, err := t.Schema.ColIndex("", col); err == nil {
			return t.ColStats[ci]
		}
	}
	for _, c := range n.Children() {
		if cs := leafColumnStats(c, alias, col); cs != nil {
			return cs
		}
	}
	return nil
}

// EstimateNode exposes the cost model (for EXPLAIN and tests).
func EstimateNode(n plan.Node, r *plan.AliasResolver, env *Env, opts Options) Estimate {
	rw := &rewriter{env: env, opts: opts, resolver: r}
	return rw.estimate(n)
}
