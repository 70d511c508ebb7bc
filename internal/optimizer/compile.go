package optimizer

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Compile lowers a (possibly optimized) logical plan to physical
// operators. Summary propagation is demand-driven: a scan attaches a
// tuple's summary set only when some operator above it needs summaries —
// either because the query propagates them to the output or because a
// predicate, sort key, or projection expression reads the $ variable.
// An index-answered predicate needs no summaries at all (the Figure 13
// no-propagation case), which is what makes backward pointers pay off.
func Compile(n plan.Node, env *Env, opts Options) (exec.Operator, error) {
	return compile(n, env, opts, env.Propagate)
}

func usesDollar(exprs ...sql.Expr) bool {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if plan.Analyze(e, nil).UsesSummaries {
			return true
		}
	}
	return false
}

// compile lowers one node; need reports whether operators above n
// require summary sets on n's output rows. With a stats collector in
// opts, every produced operator is wrapped in a per-operator runtime
// recorder keyed by its logical node, so EXPLAIN ANALYZE can join
// estimates and actuals over the plan tree. Inside a parallel worker
// the concurrency-safe worker recorders are used instead: all workers
// of one fragment share the same logical nodes, so their rows and Next
// calls merge into one OpStats per node.
func compile(n plan.Node, env *Env, opts Options, need bool) (exec.Operator, error) {
	it, err := compileNode(n, env, opts, need)
	if err != nil {
		return it, err
	}
	if opts.Collector != nil {
		if opts.inWorker {
			it = opts.Collector.WrapWorker(n, it)
		} else {
			it = opts.Collector.Wrap(n, it)
		}
	}
	return it, nil
}

// compileWorkers lowers a Gather fragment's child once per partition.
// With wrapTop set (fragments consumed by a parallel aggregation or
// hash build, where no exec.Gather exists) each worker's top iterator
// is additionally recorded under the GatherNode itself, merging the
// per-worker row counts the EXPLAIN ANALYZE goldens pin.
func compileWorkers(g *plan.GatherNode, env *Env, opts Options, need bool, wrapTop bool) ([]exec.Operator, error) {
	workers := make([]exec.Operator, g.DOP)
	for i := range workers {
		wopts := opts
		wopts.inWorker = true
		wopts.part = exec.PartitionSpec{Index: i, Of: g.DOP}
		it, err := compile(g.Child, env, wopts, need)
		if err != nil {
			return nil, err
		}
		if wrapTop && opts.Collector != nil {
			it = opts.Collector.WrapWorker(g, it)
		}
		workers[i] = it
	}
	return workers, nil
}

func compileNode(n plan.Node, env *Env, opts Options, need bool) (exec.Operator, error) {
	switch node := n.(type) {
	case *plan.Scan:
		s := exec.NewSeqScan(node.Table, node.Alias, need)
		s.Part = opts.part
		return s, nil

	case *plan.GatherNode:
		workers, err := compileWorkers(node, env, opts, need, false)
		if err != nil {
			return nil, err
		}
		return exec.NewGather(workers), nil

	case *plan.SummaryIndexScanNode:
		// The index answers its own predicate from itemized keys; the
		// summary set is fetched only when needed above.
		s := exec.NewSummaryIndexScan(node.Table, node.Alias, node.Index,
			node.Label, node.Op, node.Constant, need)
		s.ConventionalPointers = opts.ConventionalPointers
		s.Descending = node.Descending
		s.SortedFetch = node.FetchSorted
		s.Part = opts.part
		return s, nil

	case *plan.BaselineIndexScanNode:
		s := exec.NewBaselineIndexScan(node.Table, node.Alias, node.Index,
			node.Label, node.Op, node.Constant, need)
		s.ReconstructSummaries = node.Reconstruct
		return s, nil

	case *plan.SummaryProject:
		if !need {
			// Effect projection only transforms summaries; skip it when
			// nothing above reads them.
			return compile(node.Child, env, opts, false)
		}
		child, err := compile(node.Child, env, opts, true)
		if err != nil {
			return nil, err
		}
		return exec.NewSummaryEffectProject(child, node.Kept, env.Annotations, env.Lookup), nil

	case *plan.Select:
		child, err := compile(node.Child, env, opts, need || usesDollar(node.Pred))
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(child, node.Pred, env.Lookup), nil

	case *plan.SummarySelect:
		child, err := compile(node.Child, env, opts, true)
		if err != nil {
			return nil, err
		}
		return exec.NewSummarySelect(child, node.Pred, env.Lookup), nil

	case *plan.SummaryFilterNode:
		child, err := compile(node.Child, env, opts, need)
		if err != nil {
			return nil, err
		}
		return exec.NewSummaryFilter(child, node.Instances, node.Types), nil

	case *plan.Join:
		childNeed := need || usesDollar(node.On, node.Residual)
		left, err := compile(node.Left, env, opts, childNeed)
		if err != nil {
			return nil, err
		}
		if node.UseIndex {
			innerScan, _ := leafScan(node.Right)
			if innerScan == nil {
				return nil, fmt.Errorf("optimizer: index join requires a base-table inner side")
			}
			j := exec.NewIndexJoin(left, innerScan.Table, innerScan.Alias,
				node.IndexColumn, node.OuterKey, node.Residual, need, env.Lookup)
			j.FetchSummaries = childNeed
			return j, nil
		}
		if node.UseHash && node.BuildDOP > 1 {
			// Partition-parallel build: the join's Open drives one build
			// iterator per page-range partition concurrently, folding the
			// runs into the hash table in partition order.
			g := &plan.GatherNode{Child: node.Right, DOP: node.BuildDOP}
			builds, err := compileWorkers(g, env, opts, childNeed, false)
			if err != nil {
				return nil, err
			}
			return exec.NewParallelHashJoin(left, builds, node.HashLeft, node.HashRight,
				node.Residual, need, env.Lookup), nil
		}
		right, err := compile(node.Right, env, opts, childNeed)
		if err != nil {
			return nil, err
		}
		if node.UseHash {
			return exec.NewHashJoin(left, right, node.HashLeft, node.HashRight,
				node.Residual, need, env.Lookup), nil
		}
		return exec.NewNLJoin(left, right, node.On, need, env.Lookup), nil

	case *plan.SummaryJoin:
		left, err := compile(node.Left, env, opts, true)
		if err != nil {
			return nil, err
		}
		if node.UseIndex {
			innerScan, _ := leafScan(node.Right)
			if innerScan == nil {
				return nil, fmt.Errorf("optimizer: index join requires a base-table inner side")
			}
			j := exec.NewIndexJoin(left, innerScan.Table, innerScan.Alias,
				node.IndexColumn, node.OuterKey, node.Residual, need, env.Lookup)
			j.FetchSummaries = true
			return j, nil
		}
		right, err := compile(node.Right, env, opts, true)
		if err != nil {
			return nil, err
		}
		j := exec.NewNLJoin(left, right, node.Pred, need, env.Lookup)
		j.Summary = true
		return j, nil

	case *plan.SortNode:
		keyExprs := make([]sql.Expr, len(node.Keys))
		for i := range node.Keys {
			keyExprs[i] = node.Keys[i].Expr
		}
		child, err := compile(node.Child, env, opts, need || usesDollar(keyExprs...))
		if err != nil {
			return nil, err
		}
		if node.Eliminated {
			return child, nil
		}
		if opts.ForceSort == "disk" || node.Disk {
			return exec.NewExternalSort(child, node.Keys, opts.SortRunLen, env.Lookup), nil
		}
		return exec.NewSort(child, node.Keys, env.Lookup), nil

	case *plan.GroupByNode:
		aggExprs := make([]sql.Expr, 0, len(node.Aggs))
		for _, a := range node.Aggs {
			if a.Arg != nil {
				aggExprs = append(aggExprs, a.Arg)
			}
		}
		childNeed := need || usesDollar(append(aggExprs, node.Keys...)...)
		if g, ok := node.Child.(*plan.GatherNode); ok && node.DOP > 1 && g.Partial {
			// Parallel partial/final aggregation: no Gather operator is
			// built — the GroupBy itself drives the workers, each folding
			// its partition into per-group partial states merged in
			// partition order. The worker tops are recorded under the
			// GatherNode so EXPLAIN ANALYZE shows the fragment's rows.
			workers, err := compileWorkers(g, env, opts, childNeed, true)
			if err != nil {
				return nil, err
			}
			return exec.NewParallelGroupBy(workers, node.Keys, node.Aggs, env.Lookup), nil
		}
		child, err := compile(node.Child, env, opts, childNeed)
		if err != nil {
			return nil, err
		}
		return exec.NewGroupBy(child, node.Keys, node.Aggs, env.Lookup), nil

	case *plan.ProjectNode:
		child, err := compile(node.Child, env, opts, need || usesDollar(node.Exprs...))
		if err != nil {
			return nil, err
		}
		return exec.NewProject(child, node.Exprs, node.Out, env.Lookup), nil

	case *plan.DistinctNode:
		child, err := compile(node.Child, env, opts, need)
		if err != nil {
			return nil, err
		}
		return exec.NewDistinct(child, env.Lookup), nil

	case *plan.LimitNode:
		child, err := compile(node.Child, env, opts, need)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(child, node.N), nil

	default:
		return nil, fmt.Errorf("optimizer: cannot compile %T", n)
	}
}
