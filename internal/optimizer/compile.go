package optimizer

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/plan"
)

// Compile lowers a (possibly optimized) logical plan to physical
// operators. Summary propagation is demand-driven: a tuple's summary set
// is fetched only when some operator above its leaf needs summaries —
// either because the query propagates them to the output or because a
// predicate, sort key, or projection expression reads the $ variable.
// Scans never fetch sets themselves: an exec.AttachSummaries does,
// placed above the stack of data-only selections on the leaf, so only
// the rows those selections keep pay for a set (a data-only σ commutes
// with attaching the set). An index-answered predicate needs no
// summaries at all (the Figure 13 no-propagation case), which is what
// makes backward pointers pay off.
func Compile(n plan.Node, env *Env, opts Options) (exec.Operator, error) {
	return compile(n, env, opts, env.Propagate, 0)
}

// attach wraps a single-table leaf in the summary fetch when something
// above needs summaries.
func attach(leaf exec.Operator, t *catalog.Table, need bool) exec.Operator {
	if !need {
		return leaf
	}
	return exec.NewAttachSummaries(leaf, t)
}

// filteredLeafTable returns the table of the single-table leaf under a
// stack of data-only selections rooted at n, or nil when n is anything
// else. A baseline scan that reconstructs its summaries supplies them
// itself and is not such a leaf.
func filteredLeafTable(n plan.Node) *catalog.Table {
	for {
		switch node := n.(type) {
		case *plan.Select:
			if plan.ReadsSummaries(node.Pred) {
				return nil
			}
			n = node.Child
		case *plan.Scan:
			return node.Table
		case *plan.SummaryIndexScanNode:
			return node.Table
		case *plan.BaselineIndexScanNode:
			if node.Reconstruct {
				return nil
			}
			return node.Table
		default:
			return nil
		}
	}
}

// childNeed is the need n's inputs are compiled under, given the need
// above n: whether an operator at or above n reads the summary sets of
// the rows its inputs produce. Any selection (S), join (J), sort key,
// aggregate or projection naming the $ variable reads them; an
// eliminated sort evaluates no key, so its keys read nothing. (A
// data-only σ over a leaf compiles its leaf without the sets and
// attaches them above itself; the leaf's rows still pay for them, so
// the cost model charges them there.)
func childNeed(n plan.Node, need bool) bool {
	switch node := n.(type) {
	case *plan.Select:
		return need || plan.ReadsSummaries(node.Pred)
	case *plan.Join:
		return need || plan.ReadsSummaries(node.On)
	case *plan.SortNode:
		if node.Eliminated {
			return need
		}
		for _, k := range node.Keys {
			need = need || plan.ReadsSummaries(k.Expr)
		}
		return need
	case *plan.GroupByNode:
		for _, a := range node.Aggs {
			need = need || plan.ReadsSummaries(a.Arg)
		}
		return need || plan.ReadsSummaries(node.Keys...)
	case *plan.ProjectNode:
		return need || plan.ReadsSummaries(node.Exprs...)
	}
	return need
}

// childGoal is the row goal n's inputs are compiled under, given the
// goal above n (0: none): how many rows a LIMIT above still wants from
// them. A LIMIT sets min(goal, N). Project, σ/S, F, the effect
// projection and an eliminated sort forward the goal unchanged: each
// emits at most one row per input row, in input order. A σ that drops
// rows needs no estimate here, because the leaf doubles its batches
// after the first. A real sort, an aggregation, a DISTINCT, both sides
// of a join and a Gather's workers drop the goal: they read their whole
// input, or a worker's share of it, whatever LIMIT sits above. The goal
// lives in the compiled leaves (exec.RowGoal), not in the QueryCtx,
// because that context is shared by the whole tree and by every Gather
// worker, so every breaker would have to undo it.
func childGoal(n plan.Node, goal int) int {
	switch node := n.(type) {
	case *plan.LimitNode:
		if goal > 0 {
			return min(goal, node.N)
		}
		return node.N
	case *plan.ProjectNode, *plan.SummaryProject:
		return goal
	}
	if _, ok := plan.StreamingChild(n); ok {
		return goal
	}
	return 0
}

// compile lowers one node; need reports whether operators above n
// require summary sets on n's output rows, and goal is the row goal on
// n's output (childGoal). With a stats collector in
// opts, every produced operator is wrapped in a per-operator runtime
// recorder keyed by its logical node, so EXPLAIN ANALYZE can join
// estimates and actuals over the plan tree. Inside a parallel worker
// the concurrency-safe worker recorders are used instead: all workers
// of one fragment share the same logical nodes, so their rows and Next
// calls merge into one OpStats per node.
func compile(n plan.Node, env *Env, opts Options, need bool, goal int) (exec.Operator, error) {
	it, err := compileNode(n, env, opts, need, goal)
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

// compileWorkers lowers a Gather fragment's child once per partition,
// without a row goal. With wrapTop set (the fragment is a breaker's
// input, where no exec.Gather exists) each worker's top iterator is
// additionally recorded under the GatherNode itself, merging the
// per-worker row counts the EXPLAIN ANALYZE goldens pin.
func compileWorkers(g *plan.GatherNode, env *Env, opts Options, need bool, wrapTop bool) ([]exec.Operator, error) {
	workers := make([]exec.Operator, g.DOP)
	for i := range workers {
		wopts := opts
		wopts.inWorker = true
		wopts.part = exec.PartitionSpec{Index: i, Of: g.DOP}
		it, err := compile(g.Child, env, wopts, need, 0)
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

// compileInputs lowers a pipeline breaker's input (a GroupBy's child, a
// hash join's build side) to the list of partitions the breaker folds:
// a Gather's workers, or the one serial input. Breakers read their
// whole input, so there is no row goal.
func compileInputs(n plan.Node, env *Env, opts Options, need bool) ([]exec.Operator, error) {
	if g, ok := n.(*plan.GatherNode); ok {
		return compileWorkers(g, env, opts, need, true)
	}
	it, err := compile(n, env, opts, need, 0)
	return []exec.Operator{it}, err
}

func compileNode(n plan.Node, env *Env, opts Options, need bool, goal int) (exec.Operator, error) {
	goalBelow := childGoal(n, goal)
	switch node := n.(type) {
	case *plan.Scan:
		s := exec.NewSeqScan(node.Table, node.Alias)
		s.Part = opts.part
		s.Goal = goal
		return attach(s, node.Table, need), nil

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
			node.Label, node.Op, node.Constant)
		s.ConventionalPointers = opts.ConventionalPointers
		s.Descending = node.Descending
		s.SortedFetch = node.FetchSorted
		s.Part = opts.part
		s.Goal = goal
		return attach(s, node.Table, need), nil

	case *plan.BaselineIndexScanNode:
		s := exec.NewBaselineIndexScan(node.Table, node.Alias, node.Index,
			node.Label, node.Op, node.Constant)
		s.ReconstructSummaries = node.Reconstruct
		s.Goal = goal
		return attach(s, node.Table, need && !node.Reconstruct), nil

	case *plan.SummaryProject:
		if !need {
			// Effect projection only transforms summaries; skip it when
			// nothing above reads them.
			return compile(node.Child, env, opts, false, goalBelow)
		}
		child, err := compile(node.Child, env, opts, true, goalBelow)
		if err != nil {
			return nil, err
		}
		return exec.NewSummaryEffectProject(child, node.Kept, env.Annotations, env.Lookup), nil

	case *plan.Select:
		if t := filteredLeafTable(node); need && t != nil {
			// The topmost data-only σ over a leaf: fetch the sets of the
			// rows it keeps, above it, and none below.
			child, err := compile(node.Child, env, opts, false, goalBelow)
			if err != nil {
				return nil, err
			}
			return exec.NewAttachSummaries(exec.NewFilter(child, node.Pred, env.Lookup), t), nil
		}
		child, err := compile(node.Child, env, opts, childNeed(n, need), goalBelow)
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(child, node.Pred, env.Lookup), nil

	case *plan.SummaryFilterNode:
		child, err := compile(node.Child, env, opts, need, goalBelow)
		if err != nil {
			return nil, err
		}
		return exec.NewSummaryFilter(child, node.Instances, node.Types), nil

	case *plan.Join:
		below := childNeed(n, need)
		left, err := compile(node.Left, env, opts, below, goalBelow)
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
			j.FetchSummaries = below
			return j, nil
		}
		if node.UseHash {
			builds, err := compileInputs(node.Right, env, opts, below)
			if err != nil {
				return nil, err
			}
			return exec.NewHashJoin(left, builds, node.HashLeft, node.HashRight,
				node.Residual, need, env.Lookup), nil
		}
		right, err := compile(node.Right, env, opts, below, goalBelow)
		if err != nil {
			return nil, err
		}
		return exec.NewNLJoin(left, right, node.On, need, env.Lookup), nil

	case *plan.SortNode:
		child, err := compile(node.Child, env, opts, childNeed(n, need), goalBelow)
		if err != nil {
			return nil, err
		}
		if node.Eliminated {
			return child, nil
		}
		if opts.ForceSort == "disk" {
			return exec.NewExternalSort(child, node.Keys, opts.SortRunLen, env.Lookup), nil
		}
		return exec.NewSort(child, node.Keys, env.Lookup), nil

	case *plan.GroupByNode:
		inputs, err := compileInputs(node.Child, env, opts, childNeed(n, need))
		if err != nil {
			return nil, err
		}
		return exec.NewGroupBy(inputs, node.Keys, node.Aggs, env.Lookup), nil

	case *plan.ProjectNode:
		child, err := compile(node.Child, env, opts, childNeed(n, need), goalBelow)
		if err != nil {
			return nil, err
		}
		return exec.NewProject(child, node.Exprs, node.Out, env.Lookup), nil

	case *plan.DistinctNode:
		child, err := compile(node.Child, env, opts, need, goalBelow)
		if err != nil {
			return nil, err
		}
		return exec.NewDistinct(child, env.Lookup), nil

	case *plan.LimitNode:
		child, err := compile(node.Child, env, opts, need, goalBelow)
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(child, node.N), nil

	default:
		return nil, fmt.Errorf("optimizer: cannot compile %T", n)
	}
}
