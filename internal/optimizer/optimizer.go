// Package optimizer implements the extended query optimizer of Section
// 5: the equivalence and transformation rules (1–11) over plans mixing
// standard and summary-based operators, a cardinality/cost model fed by
// the maintained summary statistics, access-path selection between
// sequential scans, Summary-BTree scans, and baseline-index scans, join
// implementation choice (block nested-loop vs index-based), and
// sort elimination through index-provided interesting orders.
package optimizer

import (
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/plan"
)

// Options steer optimization; the zero value enables everything with
// automatic choices. The disable/force knobs exist for the paper's
// ablation experiments (Figures 10–15).
type Options struct {
	// Disable skips every rewrite: the canonical plan compiles as-is.
	Disable bool
	// DisableRules skips the Section 5 rule rewrites (pushdown, access
	// paths, join reorder, sort elimination) but still honors ForceJoin
	// for the physical join implementation — the "Optimization-Disabled"
	// bars of Figures 14 and 15, whose x-axis varies the join and sort
	// algorithms independently of the rules.
	DisableRules bool
	// NoSummaryIndex forbids summary-index access paths (the NoIndex
	// series of Figures 10 and 11).
	NoSummaryIndex bool
	// UseBaseline selects the baseline indexing scheme instead of the
	// Summary-BTree where both exist.
	UseBaseline bool
	// BaselineReconstruct makes baseline scans rebuild propagated
	// summaries from the normalized storage (Figure 12).
	BaselineReconstruct bool
	// ConventionalPointers makes Summary-BTree scans resolve hits
	// through R_SummaryStorage instead of backward pointers (Figure 13).
	ConventionalPointers bool
	// ForceJoin pins the join implementation: "nl" or "index".
	ForceJoin string
	// ForceFetch pins the index-scan fetch mode: "sorted" (page-ordered
	// batched dereference) or "ordered" (count-order per-RID fetch) —
	// the differential tests' and Figure 19's ablation knob. Empty means
	// cost-based. The knob also settles the order/fetch tradeoff inside
	// sort elimination: "ordered" lets the index order stand in for a
	// Sort, "sorted" keeps the Sort and fetches in page order.
	ForceFetch string
	// ForceSort pins the sort implementation: "mem" or "disk".
	ForceSort string
	// SortRunLen sizes external-sort runs (rows; 0 = default).
	SortRunLen int
	// MaxParallelWorkers caps the degree of intra-query parallelism the
	// optimizer may plan: page-range-partitioned parallel scans stitched
	// by a Gather exchange, partition-parallel hash-join builds, and
	// parallel partial aggregation. 0 means the engine default; 1 (or a
	// zero engine default) disables parallel planning entirely, compiling
	// the exact serial plans. The planned DOP is cost-based and never
	// exceeds the table's page count, so small tables stay serial.
	MaxParallelWorkers int
	// MaxBatchSize is the row capacity of the batches every operator of
	// the statement exchanges. 0 means the engine default; 1 (or a zero
	// engine default) is one row per exchange — tuple-at-a-time
	// execution through the same operators. It does not shape the plan;
	// BatchCapacity clamps it into [1, exec.MaxBatchSize].
	MaxBatchSize int
	// Budget is a per-query resource-limit template overriding the DB
	// default: pipeline breakers (Sort, HashJoin, GroupBy, Distinct)
	// charge buffered rows/bytes and spill bytes against it. The engine
	// copies the limits into a fresh accounting instance per query, so a
	// single Options value is safe to reuse across queries. nil means
	// the engine default (unlimited unless configured).
	Budget *exec.Budget
	// Collector, when non-nil, wraps every compiled operator in a
	// runtime-stats recorder keyed by its logical plan node — the
	// EXPLAIN ANALYZE instrumentation. A Collector belongs to one
	// execution; do not reuse it across queries.
	Collector *exec.StatsCollector

	// part/inWorker thread the compiler's parallel-fragment state: when
	// compiling one worker's copy of a Gather subtree, part selects its
	// scan partition and inWorker switches stats wrapping to the
	// concurrency-safe worker recorders. Internal to the compiler.
	part     exec.PartitionSpec
	inWorker bool
}

// BatchCapacity is the one row capacity a statement's operators share:
// MaxBatchSize clamped into [1, exec.MaxBatchSize], so 0 (unset) and 1
// both mean one row per exchange. The engine applies it once per
// statement, building the exec.QueryCtx it hands the root operator's
// Open. Plans themselves carry no capacity, so one cached plan skeleton
// serves every setting.
func BatchCapacity(opts Options) int {
	return min(max(opts.MaxBatchSize, 1), exec.MaxBatchSize)
}

// Env supplies the optimizer and compiler with catalog context.
type Env struct {
	Cat *catalog.Catalog
	// SummaryIdx resolves a Summary-BTree over (table, instance); nil
	// when absent.
	SummaryIdx func(table, instance string) *index.SummaryBTree
	// BaselineIdx resolves a baseline index; nil when absent.
	BaselineIdx func(table, instance string) *index.Baseline
	// Annotations fetches a tuple's raw annotations (for the
	// summary-effect projection).
	Annotations func(tupleOID int64) []*model.Annotation
	// Lookup resolves annotation IDs (keyword search, re-election).
	Lookup model.AnnotationLookup
	// Propagate attaches summary sets to scanned tuples and merges them
	// through joins.
	Propagate bool
}

// Optimize rewrites the canonical plan using the Section 5 rules and
// picks access paths. With opts.Disable it returns the input unchanged.
func Optimize(root plan.Node, r *plan.AliasResolver, env *Env, opts Options) plan.Node {
	if opts.Disable {
		return root
	}
	rw := &rewriter{env: env, opts: opts, resolver: r}
	if opts.DisableRules {
		if opts.ForceJoin == "index" {
			root = rw.chooseJoinImpl(root)
		}
		return root
	}
	root = rw.pushdown(root)
	root = rw.chooseAccessPaths(root)
	root = rw.reorderSummaryJoins(root)
	root = rw.chooseJoinImpl(root)
	root = rw.eliminateSorts(root)
	root = rw.applyForceFetch(root)
	root = rw.parallelize(root)
	return root
}
