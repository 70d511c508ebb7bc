package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/plan"
)

// This file is the fetch-path decision for Summary-BTree scans: having
// chosen an index access path, the optimizer still owes a physical
// choice about dereferencing the hit list. The page-ordered ("sorted",
// bitmap-style) fetch sorts the RIDs by physical address and pins each
// data page once, so physical I/O is bounded by the distinct pages
// touched — but the index's count order is lost and any ORDER BY above
// needs a compensating Sort. The order-preserving ("ordered") fetch
// keeps count order at one random page access per hit, which is free
// while the working set is cache-resident and ruinous once it exceeds
// the buffer pool's frame budget. The decision compares the two using
// the Section 5.2 I/O model plus the pool's residency (frames vs
// distinct pages), and is taken wherever sort elimination considers
// consuming the index order (establishOrder).

// FetchSorted/FetchOrdered are the Options.ForceFetch values pinning
// the decision for ablations (differential tests, Figure 19).
const (
	FetchSorted  = "sorted"
	FetchOrdered = "ordered"
)

// distinctPagesTouched is the Cardenas estimate of distinct pages
// receiving at least one of k uniformly scattered hits over p pages:
// p·(1 − (1 − 1/p)^k).
func distinctPagesTouched(k, p float64) float64 {
	if p <= 0 || k <= 0 {
		return 0
	}
	return p * (1 - math.Pow(1-1/p, k))
}

// poolFrames returns the frame budget of the buffer pool serving t's
// data heap, or 0 when it has none (every page stays resident).
func poolFrames(t *catalog.Table) int {
	if pool := t.Data.Accountant().Pool(); pool != nil {
		return pool.Stats().Frames
	}
	return 0
}

// fetchCosts prices both fetch strategies for `matches` hits against
// t's data heap, in page-access units.
//
//	sorted:  one physical read per distinct page (consecutive same-page
//	         RIDs share one pin) plus the O(k log k) RID sort as CPU;
//	ordered: per-hit random accesses. While every touched page stays
//	         resident — no pool at all, or a frame budget covering the
//	         distinct pages — a repeat touch costs only CPU and the
//	         strategies converge; once the working set exceeds the
//	         frames the clock policy churns and each hit is priced as
//	         a physical read (the cache-residency awareness).
func (rw *rewriter) fetchCosts(t *catalog.Table, matches float64) (ordered, sorted float64) {
	pages := float64(t.Data.Pages())
	distinct := distinctPagesTouched(matches, pages)
	k := math.Max(matches, 2)
	sorted = distinct + k*math.Log2(k)*cpuPerRow
	frames := float64(poolFrames(t))
	if frames == 0 || frames >= distinct {
		ordered = distinct + matches*cpuPerRow
	} else {
		ordered = matches
	}
	return ordered, sorted
}

// orderedFetch decides the order/fetch tradeoff for an index scan whose
// count order a downstream ORDER BY wants: it returns the leaf reading
// in count order (random fetch, Sort eliminated) when the cost model
// prices it no higher than a Sort over the page-ordered fetch the plan
// would otherwise keep, and leaf unchanged otherwise. ForceFetch pins
// the answer for ablations.
func (rw *rewriter) orderedFetch(leaf *plan.SummaryIndexScanNode, desc bool) (plan.Node, bool) {
	ordered, sorted := *leaf, *leaf
	ordered.Ordered, ordered.FetchSorted, ordered.Descending = true, false, desc
	sorted.FetchSorted = true
	switch rw.opts.ForceFetch {
	case FetchOrdered:
		return &ordered, true
	case FetchSorted:
		return leaf, false
	}
	if rw.cheapest(&ordered, &plan.SortNode{Child: &sorted}) == 0 {
		return &ordered, true
	}
	return leaf, false
}

// applyForceFetch pins the fetch mode of every index scan whose order
// is not being consumed (an Ordered scan's mode is the order decision
// itself, already settled in establishOrder under the same knob).
func (rw *rewriter) applyForceFetch(n plan.Node) plan.Node {
	if rw.opts.ForceFetch == "" {
		return n
	}
	if s, ok := n.(*plan.SummaryIndexScanNode); ok && !s.Ordered {
		s.FetchSorted = rw.opts.ForceFetch == FetchSorted
	}
	return plan.MapChildren(n, rw.applyForceFetch)
}

// fetchDistinctPages bounds the useful parallelism of a sorted index
// fetch: its partitioning unit is the distinct data page, so chooseDOP
// caps the DOP at this estimate.
func (rw *rewriter) fetchDistinctPages(leaf *plan.SummaryIndexScanNode) int {
	matches := rw.indexHits(leaf.Table, leaf.Instance, leaf.Label, leaf.Op, leaf.Constant)
	return int(distinctPagesTouched(matches, float64(leaf.Table.Data.Pages())))
}
