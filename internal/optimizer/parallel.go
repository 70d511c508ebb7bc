package optimizer

import (
	"repro/internal/plan"
)

// This file is the optimizer's parallelization pass: it decides, per
// plan fragment, whether intra-query parallelism pays off and marks
// each parallel fragment with the one marker the compiler lowers to
// the executor's worker pools, a GatherNode. The pass runs last, after
// all logical rewrites, so every other rule sees only serial shapes;
// with MaxParallelWorkers <= 1 it is the identity and the plan compiles
// exactly as before.

// parallelStartupCost is the modeled per-worker overhead in page units
// (goroutine spawn, channel setup, partial-state merge). The DOP chosen
// minimizes cost/dop + startup*dop, so small fragments stay serial and
// large ones stop adding workers when the marginal speedup no longer
// covers the coordination.
const parallelStartupCost = 8.0

// parallelize walks the optimized plan and puts a GatherNode over
// every partitionable pipeline where the cost model approves. What the
// Gather becomes depends on its parent:
//
//   - under a GroupBy, or as a hash join's build (Right) side, it is the
//     list of partitions that breaker folds itself: workers aggregate
//     into per-group partial states, or hash into per-partition runs,
//     merged in partition order;
//   - anywhere else it is an exchange whose worker pool streams rows
//     in partition order.
//
// "Partitionable pipeline" means a chain of streaming operators over a
// partitionable leaf — a base-table scan (each worker takes a page
// range) or a sorted-fetch Summary-BTree scan (each worker takes a
// page-range share of the sorted hit list, so no two pin the same
// frame). Ordered index scans are not partitioned — splitting would
// destroy the count order the plan consumes — and pipeline breakers
// below the fragment would break the partition-order determinism, so
// both stop the pattern.
func (rw *rewriter) parallelize(n plan.Node) plan.Node {
	if rw.opts.MaxParallelWorkers <= 1 {
		return n
	}
	return rw.parallelizeNode(n)
}

func (rw *rewriter) parallelizeNode(n plan.Node) plan.Node {
	if pipelineScan(n) != nil || pipelineIndexScan(n) != nil {
		if dop := rw.chooseDOP(n); dop > 1 {
			return &plan.GatherNode{Child: n, DOP: dop}
		}
		return n
	}
	join, ok := n.(*plan.Join)
	if !ok {
		return plan.MapChildren(n, rw.parallelizeNode)
	}
	if join.UseHash {
		if dop := rw.chooseDOP(join.Right); dop > 1 {
			join.Right = &plan.GatherNode{Child: join.Right, DOP: dop}
		}
	}
	// The probe/outer side streams, so it may carry its own parallel
	// fragment. The inner side of an index join must stay a bare leaf
	// (the compiler probes it, it is never iterated), and a nested-loop
	// inner side is rescanned per outer row.
	join.Left = rw.parallelizeNode(join.Left)
	return join
}

// pipelineLeaf returns the node at the bottom of a chain of streaming
// operators: σ, S, F and the per-tuple summary-effect projection.
func pipelineLeaf(n plan.Node) plan.Node {
	for {
		if p, ok := n.(*plan.SummaryProject); ok {
			n = p.Child
		} else if child, ok := plan.StreamingChild(n); ok {
			n = child
		} else {
			return n
		}
	}
}

// pipelineScan returns the base-table scan at the bottom of a chain of
// streaming operators, or nil when the subtree has any other shape.
func pipelineScan(n plan.Node) *plan.Scan {
	scan, _ := pipelineLeaf(n).(*plan.Scan)
	return scan
}

// pipelineIndexScan returns the sorted-fetch Summary-BTree scan at the
// bottom of a chain of streaming operators, or nil for any other shape
// (including ordered scans, whose count order partitioning would
// destroy).
func pipelineIndexScan(n plan.Node) *plan.SummaryIndexScanNode {
	if leaf, ok := pipelineLeaf(n).(*plan.SummaryIndexScanNode); ok && leaf.FetchSorted && !leaf.Ordered {
		return leaf
	}
	return nil
}

// chooseDOP picks the degree of parallelism for one pipeline: that of
// the cheapest of its gathers (position i runs i+1 workers).
func (rw *rewriter) chooseDOP(n plan.Node) int {
	return rw.cheapest(rw.gathers(n)...) + 1
}

// gathers lists a pipeline's legal degrees of parallelism: n serial,
// then a Gather over it at each DOP from 2 up to MaxParallelWorkers.
// The DOP never exceeds the leaf's partitioning units — table pages for
// a sequential scan, estimated distinct hit pages for a sorted index
// fetch — so extra workers past that would idle.
func (rw *rewriter) gathers(n plan.Node) []plan.Node {
	alts := []plan.Node{n}
	var pages int
	if scan := pipelineScan(n); scan != nil {
		pages = scan.Table.Data.Pages()
	} else if leaf := pipelineIndexScan(n); leaf != nil {
		pages = rw.fetchDistinctPages(leaf)
	}
	for d := 2; d <= min(rw.opts.MaxParallelWorkers, pages); d++ {
		alts = append(alts, &plan.GatherNode{Child: n, DOP: d})
	}
	return alts
}
