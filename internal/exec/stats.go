package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/pager"
)

// This file is the EXPLAIN ANALYZE instrumentation layer: a lightweight
// per-operator stats recorder attached by wrapping each physical
// operator in a statsIter. The non-ANALYZE path never allocates a
// wrapper, so ordinary queries pay nothing; an ANALYZE run pays two
// accountant snapshots (a handful of atomic loads) per operator call.

// OpStats accumulates one operator's runtime metrics. All figures are
// inclusive of the operator's children — a parent's NextBatch drives
// its subtree — mirroring how EXPLAIN ANALYZE
// reports actual time in mainstream engines. Exclusive ("self") numbers
// are derived at render time by subtracting child totals.
type OpStats struct {
	// Name is the physical operator (SeqScan, HashJoin, ...).
	Name string

	// Opens counts Open calls (rescans re-open; 1 for ordinary plans).
	Opens int64
	// NextCalls counts NextBatch invocations, including the final EOS
	// call (at capacity 1 that is one per row, plus one).
	NextCalls int64
	// Rows counts the rows of every batch emitted.
	Rows int64

	// OpenWall/NextWall/CloseWall are cumulative wall time inside each
	// phase, inclusive of children.
	OpenWall  time.Duration
	NextWall  time.Duration
	CloseWall time.Duration

	// IO is the pager-counter delta (heap page and B-Tree node accesses)
	// observed while this subtree was running.
	IO pager.Stats

	// BufferedRows/BufferedBytes/SpillBytes are resource-budget charges
	// (monotonic totals) attributed to this subtree — sort buffers and
	// spill files, hash tables, aggregation state.
	BufferedRows  int64
	BufferedBytes int64
	SpillBytes    int64

	// FetchMode/PagesPinned/DistinctPages describe an index scan's heap
	// fetch ("sorted" page-ordered batch or "ordered" per-RID); FetchMode
	// stays empty for every other operator, which gates the rendering.
	FetchMode     string
	PagesPinned   int64
	DistinctPages int64
}

// Wall is the total wall time across all phases (inclusive).
func (s *OpStats) Wall() time.Duration { return s.OpenWall + s.NextWall + s.CloseWall }

// String renders the actual-side metrics compactly.
func (s *OpStats) String() string {
	out := fmt.Sprintf("rows=%d nexts=%d time=%s io=%d+%d",
		s.Rows, s.NextCalls, s.Wall().Round(time.Microsecond), s.IO.PageReads, s.IO.PageWrites)
	if n := s.IO.NodeAccesses(); n > 0 {
		out += fmt.Sprintf(" nodes=%d", n)
	}
	if s.SpillBytes > 0 {
		out += fmt.Sprintf(" spill=%dB", s.SpillBytes)
	}
	if s.BufferedRows > 0 {
		out += fmt.Sprintf(" buffered=%d", s.BufferedRows)
	}
	return out
}

// StatsCollector owns the per-operator recorders of one instrumented
// query. Keys are opaque (the optimizer uses logical plan nodes), so the
// executor stays free of plan dependencies. A nil collector disables
// instrumentation everywhere.
//
// Registration (Wrap/WrapWorker) happens on the compiling goroutine;
// during execution each recorder accumulates into private counters and
// merges them into the shared per-key OpStats under mu at Close — so
// the worker goroutines of a parallel fragment, which wrap the same
// logical node once per partition, fold their rows and NextBatch calls into
// one OpStats without racing.
type StatsCollector struct {
	// Acct is the I/O accountant sampled around operator calls; nil
	// disables I/O deltas but keeps row/time accounting.
	Acct *pager.Accountant

	mu    sync.Mutex
	stats map[any]*OpStats
	order []*OpStats
}

// NewStatsCollector builds a collector sampling the given accountant.
func NewStatsCollector(acct *pager.Accountant) *StatsCollector {
	return &StatsCollector{Acct: acct, stats: make(map[any]*OpStats)}
}

// Wrap instruments it under the given key, registering (and returning)
// a recording wrapper. Wrapping the same key twice reuses its OpStats.
func (c *StatsCollector) Wrap(key any, it Operator) Operator {
	if c == nil {
		return it
	}
	return &statsIter{child: it, st: c.register(key, it), coll: c, acct: c.Acct}
}

// WrapWorker instruments one worker's copy of a parallel plan fragment.
// Worker recorders count rows, NextBatch calls, and wall time only: the
// accountant and budget are engine-/query-wide, so per-call deltas
// sampled by concurrent goroutines would attribute a neighbor worker's
// traffic nondeterministically. I/O for a parallel fragment is instead
// observed by the enclosing serial operator's window (the parallel
// GroupBy/HashJoin build runs entirely inside its own Open). All
// workers wrapping the same key merge into one OpStats at Close.
func (c *StatsCollector) WrapWorker(key any, it Operator) Operator {
	if c == nil {
		return it
	}
	return &statsIter{child: it, st: c.register(key, it), coll: c, worker: true}
}

// register finds or creates the shared OpStats for key.
func (c *StatsCollector) register(key any, it Operator) *OpStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.stats[key]
	if !ok {
		st = &OpStats{Name: OpName(it)}
		c.stats[key] = st
		c.order = append(c.order, st)
	}
	return st
}

// Stats returns the recorder registered under key, or nil when the key's
// plan node never compiled to an executed operator (eliminated sorts,
// index-join inner sides).
func (c *StatsCollector) Stats(key any) *OpStats {
	if c == nil {
		return nil
	}
	return c.stats[key]
}

// All returns every recorder in registration (compile) order.
func (c *StatsCollector) All() []*OpStats {
	if c == nil {
		return nil
	}
	return c.order
}

// FetchStats describes an index scan's heap-fetch stage for EXPLAIN
// ANALYZE: the mode chosen by the optimizer, the page pins it made, and
// the distinct data pages of the hits it dereferenced.
type FetchStats struct {
	Mode          string
	PagesPinned   int64
	DistinctPages int64
}

// fetchReporter is implemented by operators with a fetch stage to
// report (SummaryIndexScan). The stats layer finds one under an
// AttachSummaries too, which is part of the scan it sits on; it asks it
// to count its pages before Open and samples it just before Close.
type fetchReporter interface {
	countPages()
	FetchStats() FetchStats
}

// fetchReporterOf returns op's fetch stage, if it has one.
func fetchReporterOf(op Operator) (fetchReporter, bool) {
	if a, ok := op.(*AttachSummaries); ok {
		op = a.Input
	}
	fr, ok := op.(fetchReporter)
	return fr, ok
}

// statsIter is the recording decorator around one physical operator.
// It accumulates into the private acc and folds it into the shared
// per-key OpStats under the collector's lock at Close, so recorders on
// different goroutines (parallel workers) never write st concurrently.
type statsIter struct {
	child  Operator
	st     *OpStats
	coll   *StatsCollector
	acct   *pager.Accountant
	worker bool // rows/time only; skip I/O and budget attribution

	acc OpStats // private accumulator, flushed at Close
}

// Unwrap exposes the wrapped operator (tests and OpName reach through).
func (w *statsIter) Unwrap() Operator { return w.child }

// sample begins one measurement window; budget is the query's (nil at
// Close, which charges nothing).
func (w *statsIter) sample(budget *Budget) (time.Time, pager.Stats, [3]int64) {
	var totals [3]int64
	if w.worker {
		return time.Now(), pager.Stats{}, totals
	}
	totals[0], totals[1], totals[2] = budget.ChargeTotals()
	return time.Now(), w.acct.Stats(), totals
}

// commit closes a measurement window into the accumulator.
func (w *statsIter) commit(budget *Budget, wall *time.Duration, start time.Time, io0 pager.Stats, b0 [3]int64) {
	*wall += time.Since(start)
	if w.worker {
		return
	}
	w.acc.IO = w.acc.IO.Add(w.acct.Stats().Sub(io0))
	r, b, sp := budget.ChargeTotals()
	w.acc.BufferedRows += r - b0[0]
	w.acc.BufferedBytes += b - b0[1]
	w.acc.SpillBytes += sp - b0[2]
}

// flush folds the private accumulator into the shared OpStats and
// resets it, so repeated Open/Close cycles (rescans) keep adding up.
func (w *statsIter) flush() {
	w.coll.mu.Lock()
	w.st.merge(&w.acc)
	w.coll.mu.Unlock()
	w.acc = OpStats{}
}

// merge adds o's counters into s.
func (s *OpStats) merge(o *OpStats) {
	s.Opens += o.Opens
	s.NextCalls += o.NextCalls
	s.Rows += o.Rows
	s.OpenWall += o.OpenWall
	s.NextWall += o.NextWall
	s.CloseWall += o.CloseWall
	s.IO = s.IO.Add(o.IO)
	s.BufferedRows += o.BufferedRows
	s.BufferedBytes += o.BufferedBytes
	s.SpillBytes += o.SpillBytes
	if o.FetchMode != "" {
		s.FetchMode = o.FetchMode
	}
	s.PagesPinned += o.PagesPinned
	s.DistinctPages += o.DistinctPages
}

func (w *statsIter) Open(qc *QueryCtx) error {
	if fr, ok := fetchReporterOf(w.child); ok {
		fr.countPages()
	}
	start, io0, b0 := w.sample(qc.Budget())
	err := w.child.Open(qc)
	w.acc.Opens++
	w.commit(qc.Budget(), &w.acc.OpenWall, start, io0, b0)
	return err
}

// NextBatch records one measurement window per batch. Rows counts
// every row, so EXPLAIN ANALYZE "rows" does not depend on the
// capacity; "nexts" counts batch calls.
func (w *statsIter) NextBatch(qc *QueryCtx) (*Batch, error) {
	start, io0, b0 := w.sample(qc.Budget())
	b, err := w.child.NextBatch(qc)
	w.acc.NextCalls++
	if b != nil {
		w.acc.Rows += int64(b.Len())
	}
	w.commit(qc.Budget(), &w.acc.NextWall, start, io0, b0)
	return b, err
}

func (w *statsIter) Close() error {
	// Sample fetch-stage counters before the operator closes. Worker
	// recorders sample too: the counters are per operator instance, so
	// shares from parallel partitions sum cleanly in merge.
	if fr, ok := fetchReporterOf(w.child); ok {
		fs := fr.FetchStats()
		w.acc.FetchMode = fs.Mode
		w.acc.PagesPinned += fs.PagesPinned
		w.acc.DistinctPages += fs.DistinctPages
	}
	start, io0, b0 := w.sample(nil)
	err := w.child.Close()
	w.commit(nil, &w.acc.CloseWall, start, io0, b0)
	w.flush()
	return err
}

func (w *statsIter) Schema() *model.Schema { return w.child.Schema() }

// OpName names a physical operator for display. Wrappers are unwrapped;
// unknown types fall back to their Go type name.
func OpName(it Operator) string {
	switch op := it.(type) {
	case *statsIter:
		return OpName(op.child)
	case *AttachSummaries:
		// The attach is part of the operator it sits on top of.
		return OpName(op.Input)
	case *SeqScan:
		return "SeqScan"
	case *SummaryIndexScan:
		return "SummaryIndexScan"
	case *BaselineIndexScan:
		return "BaselineIndexScan"
	case *PredicateFilter:
		return "Filter"
	case *SummaryFilter:
		return "SummaryFilter"
	case *SummaryEffectProject:
		return "SummaryProject"
	case *Project:
		return "Project"
	case *Sort:
		if op.Mem {
			return "Sort"
		}
		return "ExternalSort"
	case *HashJoin:
		return "HashJoin"
	case *IndexJoin:
		return "IndexJoin"
	case *NLJoin:
		return "NLJoin"
	case *GroupBy:
		return "GroupBy"
	case *Gather:
		return "Gather"
	case *Distinct:
		return "Distinct"
	case *Limit:
		return "Limit"
	case *sliceIter:
		return "Materialize"
	default:
		return fmt.Sprintf("%T", it)
	}
}
