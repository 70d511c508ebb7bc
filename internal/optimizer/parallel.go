package optimizer

import (
	"repro/internal/plan"
)

// This file is the optimizer's parallelization pass: it decides, per
// plan fragment, whether intra-query parallelism pays off and inserts
// the exchange (GatherNode) / parallel-build / partial-aggregation
// markers the compiler lowers to the executor's worker pools. The pass
// runs last, after all logical rewrites, so every other rule sees only
// serial shapes; with MaxParallelWorkers <= 1 it is the identity and
// the plan compiles exactly as before.

// parallelStartupCost is the modeled per-worker overhead in page units
// (goroutine spawn, channel setup, partial-state merge). The DOP chosen
// minimizes cost/dop + startup*dop, so small fragments stay serial and
// large ones stop adding workers when the marginal speedup no longer
// covers the coordination.
const parallelStartupCost = 8.0

// parallelize walks the optimized plan and inserts parallel fragments
// where the cost model approves:
//
//   - a GroupBy over a partitionable pipeline becomes a parallel
//     partial/final aggregation (workers fold their partition into
//     per-group partial states, merged in partition order);
//   - a hash join whose build side is a partitionable pipeline builds
//     its table partition-parallel;
//   - any other partitionable pipeline is wrapped in a GatherNode and
//     executed by a worker pool streaming rows in partition order.
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
	switch node := n.(type) {
	case *plan.GroupByNode:
		if dop := rw.chooseDOP(node.Child); dop > 1 {
			node.DOP = dop
			node.Child = &plan.GatherNode{Child: node.Child, DOP: dop, Partial: true}
			return node
		}
		node.Child = rw.parallelizeNode(node.Child)

	case *plan.Join:
		if node.UseHash {
			if dop := rw.chooseDOP(node.Right); dop > 1 {
				node.BuildDOP = dop
			}
		}
		// The probe/outer side streams, so it may carry its own parallel
		// fragment. The inner side of an index join must stay a bare
		// leaf (the compiler probes it, it is never iterated), and a
		// parallel-build right side is partitioned by the join itself.
		node.Left = rw.parallelizeNode(node.Left)

	case *plan.SummaryJoin:
		node.Left = rw.parallelizeNode(node.Left)

	default:
		return plan.MapChildren(n, rw.parallelizeNode)
	}
	return n
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

// chooseDOP picks the degree of parallelism for one pipeline from the
// cost model: the dop in [2, MaxParallelWorkers] minimizing
// cost/dop + startup·dop, serial if none beats the serial cost. The
// dop never exceeds the leaf's partitioning units — table pages for a
// sequential scan, estimated distinct hit pages for a sorted index
// fetch — so extra workers past that would idle.
func (rw *rewriter) chooseDOP(n plan.Node) int {
	max := rw.opts.MaxParallelWorkers
	if max <= 1 {
		return 1
	}
	var pages int
	if scan := pipelineScan(n); scan != nil {
		pages = scan.Table.Data.Pages()
	} else if leaf := pipelineIndexScan(n); leaf != nil {
		pages = rw.fetchDistinctPages(leaf)
	} else {
		return 1
	}
	if pages < 2 {
		return 1
	}
	if max > pages {
		max = pages
	}
	serial := rw.estimate(n).Cost
	best, bestCost := 1, serial
	for d := 2; d <= max; d++ {
		c := serial/float64(d) + parallelStartupCost*float64(d)
		if c < bestCost {
			best, bestCost = d, c
		}
	}
	return best
}
