package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/pager"
)

// This file is the query-lifecycle layer of the executor: per-query
// cancellation (context threading through the operator protocol), the
// resource governor the pipeline-breaking operators charge against,
// and panic isolation at operator granularity.

// ---------------------------------------------------------------------
// Context threading

// QueryCtx carries one query's lifecycle state — the cancellation
// context, the resource budget and the batch capacity — shared by every
// operator of a compiled plan tree. The poll counter and the cached cancellation
// error are atomic, so a QueryCtx may be shared by the worker
// goroutines of a parallel plan fragment (and any caller that moves an
// operator across goroutines is safe too). A nil *QueryCtx disables
// cancellation and budgeting and exchanges one row per batch; operators
// constructed directly (tests, internal rescans) keep working without
// one.
type QueryCtx struct {
	ctx      context.Context
	budget   *Budget
	capacity int
	ticks    atomic.Uint64
	done     atomic.Pointer[error] // first observed cancellation, cached
}

// NewQueryCtx builds the lifecycle state for one query. ctx may be nil
// (treated as Background); budget may be nil (unlimited). capacity is
// the row capacity of every batch the query's operators exchange and
// must already be clamped into [1, MaxBatchSize] — that happens once,
// in optimizer.BatchCapacity; anything else is a caller bug.
func NewQueryCtx(ctx context.Context, budget *Budget, capacity int) *QueryCtx {
	if ctx == nil {
		ctx = context.Background()
	}
	if capacity < 1 || capacity > MaxBatchSize {
		panic(fmt.Sprintf("exec: batch capacity %d outside [1, %d]", capacity, MaxBatchSize))
	}
	return &QueryCtx{ctx: ctx, budget: budget, capacity: capacity}
}

// Capacity is the most rows any operator of this query puts in one
// batch (1 for a nil receiver).
func (q *QueryCtx) Capacity() int {
	if q == nil {
		return 1
	}
	return q.capacity
}

// Context returns the query's context (Background for nil receivers).
func (q *QueryCtx) Context() context.Context {
	if q == nil || q.ctx == nil {
		return context.Background()
	}
	return q.ctx
}

// Budget returns the query's resource budget, possibly nil.
func (q *QueryCtx) Budget() *Budget {
	if q == nil {
		return nil
	}
	return q.budget
}

// tickEvery is how many rows of work pass between context polls:
// polling the context takes a lock, which is too hot per row on
// scan-heavy plans, and one poll per 64 rows still cancels a query
// promptly.
const tickEvery = 64

// tick is the cancellation check operators call before doing about n
// rows of work: producers pass the batch capacity once per batch, join
// probes pass 1 per candidate pair. The context is polled on the first
// call — so an already-cancelled query stops before producing a single
// row — and then whenever the running total crosses a multiple of
// tickEvery: every 64th row at capacity 1, every batch from capacity 64
// up, which bounds cancellation latency to one batch. Safe for
// concurrent use: worker goroutines of a parallel fragment share one
// counter, which only makes polling slightly more frequent.
func (q *QueryCtx) tick(n int) error {
	if q == nil || q.ctx == nil {
		return nil
	}
	if p := q.done.Load(); p != nil {
		return *p
	}
	after := q.ticks.Add(uint64(n))
	if before := after - uint64(n); before != 0 && before/tickEvery == after/tickEvery {
		return nil
	}
	return q.poll()
}

// check is the unconditional poll used at Open boundaries.
func (q *QueryCtx) check() error {
	if q == nil || q.ctx == nil {
		return nil
	}
	if p := q.done.Load(); p != nil {
		return *p
	}
	return q.poll()
}

// poll consults the context and caches the first observed error. A
// racing pair of pollers may both store — that's fine, ctx.Err() is
// stable once non-nil.
func (q *QueryCtx) poll() error {
	err := q.ctx.Err()
	if err != nil {
		q.done.Store(&err)
	}
	return err
}

// Child derives a per-worker lifecycle for one goroutine of a parallel
// fragment: it shares the parent's budget (one governor per query) but
// polls the given context, typically a cancellable child of the
// parent's so a failing sibling can stop the whole fragment.
func (q *QueryCtx) Child(ctx context.Context) *QueryCtx {
	return NewQueryCtx(ctx, q.Budget(), q.Capacity())
}

// ---------------------------------------------------------------------
// Resource governor

// ErrBudgetExceeded is the sentinel every budget violation wraps;
// errors.Is(err, ErrBudgetExceeded) identifies them through any
// wrapping layer.
var ErrBudgetExceeded = errors.New("exec: query budget exceeded")

// BudgetError reports which operator exhausted which resource.
type BudgetError struct {
	Op       string
	Resource string // "buffered rows", "buffered bytes", "spill bytes"
	Need     int64  // total the charge would have reached
	Limit    int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%v: %s needs %d %s (limit %d)",
		ErrBudgetExceeded, e.Op, e.Need, e.Resource, e.Limit)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Budget is a per-query resource governor: it caps what the
// pipeline-breaking operators (Sort, HashJoin, GroupBy, Distinct) may
// buffer in memory, and how many temp-file bytes Sort may spill. Zero
// limits mean unlimited. Charges are check-then-commit: a failed
// charge leaves the budget unchanged, which lets Sort respond to
// buffer pressure by spilling instead of failing. The commit is a CAS
// loop, so the worker goroutines of a parallel fragment can charge one
// shared budget without lost updates and without ever overshooting a
// limit. A Budget belongs to one query; the engine creates a fresh one
// per statement from its configured spec.
type Budget struct {
	MaxBufferedRows  int64
	MaxBufferedBytes int64
	MaxSpillBytes    int64

	bufRows, bufBytes, spillBytes atomic.Int64

	// Monotonic totals of everything ever charged (never released) —
	// the counters EXPLAIN ANALYZE snapshots to attribute buffering and
	// spill volume to individual operators.
	totBufRows, totBufBytes, totSpillBytes atomic.Int64
}

// NewBudget builds a budget; any zero limit is unlimited.
func NewBudget(maxRows, maxBytes, maxSpill int64) *Budget {
	return &Budget{MaxBufferedRows: maxRows, MaxBufferedBytes: maxBytes, MaxSpillBytes: maxSpill}
}

// chargeCAS atomically adds delta to ctr unless the result would exceed
// limit (0 = unlimited). It reports the total the charge would have
// reached and whether it committed.
func chargeCAS(ctr *atomic.Int64, limit, delta int64) (need int64, ok bool) {
	for {
		cur := ctr.Load()
		need = cur + delta
		if limit > 0 && need > limit {
			return need, false
		}
		if ctr.CompareAndSwap(cur, need) {
			return need, true
		}
	}
}

// ChargeBuffered charges rows/bytes of in-memory buffering, or returns
// a *BudgetError (committing nothing) when a limit would be exceeded.
// Concurrent chargers may interleave, but the committed totals never
// exceed either limit: a bytes-limit failure rolls the rows charge
// back before returning.
func (b *Budget) ChargeBuffered(op string, rows, bytes int64) error {
	if b == nil {
		return nil
	}
	if need, ok := chargeCAS(&b.bufRows, b.MaxBufferedRows, rows); !ok {
		return &BudgetError{Op: op, Resource: "buffered rows", Need: need, Limit: b.MaxBufferedRows}
	}
	if need, ok := chargeCAS(&b.bufBytes, b.MaxBufferedBytes, bytes); !ok {
		b.bufRows.Add(-rows)
		return &BudgetError{Op: op, Resource: "buffered bytes", Need: need, Limit: b.MaxBufferedBytes}
	}
	b.totBufRows.Add(rows)
	b.totBufBytes.Add(bytes)
	return nil
}

// ReleaseBuffered returns buffered charges (operators release what
// they charged when they spill or close).
func (b *Budget) ReleaseBuffered(rows, bytes int64) {
	if b == nil {
		return
	}
	b.bufRows.Add(-rows)
	b.bufBytes.Add(-bytes)
}

// ChargeSpill charges temp-file bytes, or returns a *BudgetError
// (committing nothing) when the spill limit would be exceeded.
func (b *Budget) ChargeSpill(op string, bytes int64) error {
	if b == nil {
		return nil
	}
	if need, ok := chargeCAS(&b.spillBytes, b.MaxSpillBytes, bytes); !ok {
		return &BudgetError{Op: op, Resource: "spill bytes", Need: need, Limit: b.MaxSpillBytes}
	}
	b.totSpillBytes.Add(bytes)
	return nil
}

// ReleaseSpill returns spill charges (on temp-file removal).
func (b *Budget) ReleaseSpill(bytes int64) {
	if b == nil {
		return
	}
	b.spillBytes.Add(-bytes)
}

// reservation is one operator's outstanding charges against the query
// budget — the only ledger of what Close must give back. An operator
// binds it at Open, charges and partially releases through it, may
// absorb the reservations its partition workers charged on their own
// goroutines, and releases the rest at Close. The zero value charges
// nothing and releases nothing, so Close before (or without) Open is
// safe; like its operator, a reservation is used by one goroutine at a
// time.
type reservation struct {
	budget *Budget
	op     string // names the operator in a *BudgetError

	chargedRows, chargedBytes, chargedSpill int64
}

// bind points the reservation at qc's budget on behalf of operator op,
// first returning whatever an earlier Open left outstanding (rescans).
func (r *reservation) bind(qc *QueryCtx, op string) {
	r.releaseAll()
	r.budget, r.op = qc.Budget(), op
}

// charge books rows/bytes of in-memory buffering, or returns the
// *BudgetError and books nothing.
func (r *reservation) charge(rows, bytes int64) error {
	if err := r.budget.ChargeBuffered(r.op, rows, bytes); err != nil {
		return err
	}
	r.chargedRows += rows
	r.chargedBytes += bytes
	return nil
}

// chargeSpill books temp-file bytes the same way.
func (r *reservation) chargeSpill(bytes int64) error {
	if err := r.budget.ChargeSpill(r.op, bytes); err != nil {
		return err
	}
	r.chargedSpill += bytes
	return nil
}

// release returns part of the buffered charge early: rows a sort
// spilled, hits outside a partition's share, a duplicate group.
func (r *reservation) release(rows, bytes int64) {
	r.budget.ReleaseBuffered(rows, bytes)
	r.chargedRows -= rows
	r.chargedBytes -= bytes
}

// absorb takes over o's outstanding charges (same budget), leaving o
// empty: the coordinator adopts what a partition worker charged.
func (r *reservation) absorb(o *reservation) {
	r.chargedRows += o.chargedRows
	r.chargedBytes += o.chargedBytes
	r.chargedSpill += o.chargedSpill
	o.chargedRows, o.chargedBytes, o.chargedSpill = 0, 0, 0
}

// releaseAll returns everything outstanding; calling it again is a
// no-op.
func (r *reservation) releaseAll() {
	r.budget.ReleaseBuffered(r.chargedRows, r.chargedBytes)
	r.budget.ReleaseSpill(r.chargedSpill)
	r.chargedRows, r.chargedBytes, r.chargedSpill = 0, 0, 0
}

// ChargeTotals reports the monotonic charge counters: rows and bytes
// ever buffered, and temp-file bytes ever spilled. Unlike the live
// counters these never decrease, so a before/after snapshot attributes
// charges to one operator's execution window.
func (b *Budget) ChargeTotals() (bufRows, bufBytes, spillBytes int64) {
	if b == nil {
		return 0, 0, 0
	}
	return b.totBufRows.Load(), b.totBufBytes.Load(), b.totSpillBytes.Load()
}

// BufferedRows reports the rows currently charged (for tests/metrics).
func (b *Budget) BufferedRows() int64 {
	if b == nil {
		return 0
	}
	return b.bufRows.Load()
}

// SpillBytes reports the temp-file bytes currently charged.
func (b *Budget) SpillBytes() int64 {
	if b == nil {
		return 0
	}
	return b.spillBytes.Load()
}

// approxRowBytes estimates a row's in-memory footprint for budget
// accounting: value payloads plus fixed per-row and per-summary-object
// overheads. Exactness doesn't matter; monotonicity with real usage
// does.
func approxRowBytes(r *Row) int64 {
	const rowOverhead, valueOverhead, summaryOverhead = 64, 16, 96
	n := int64(rowOverhead)
	if r == nil || r.Tuple == nil {
		return n
	}
	for _, v := range r.Tuple.Values {
		n += valueOverhead + int64(len(v.Text))
	}
	n += int64(len(r.Tuple.Summaries)) * summaryOverhead
	return n
}

// ---------------------------------------------------------------------
// Panic isolation

// OpError wraps a panic recovered inside a physical operator, naming
// the operator so the engine can report which plan fragment failed.
// Unwrap exposes the cause, so errors.Is/As see through it — injected
// *pager.FaultError values in particular.
type OpError struct {
	Op    string
	Value any    // the recovered panic value
	Stack []byte // stack at recovery (nil for typed storage faults)
	err   error
}

func (e *OpError) Error() string { return fmt.Sprintf("exec: %s: %v", e.Op, e.err) }

func (e *OpError) Unwrap() error { return e.err }

// recoverOp is deferred by every operator's Open/NextBatch: it converts an
// escaping panic into an *OpError assigned to *err. Injected pager
// faults arrive here as *pager.FaultError panic values (the storage
// layers have no error returns); any other panic value keeps its stack
// for diagnosis. Errors from child operators are ordinary returns, so
// the innermost guarded operator names the failure.
func recoverOp(op string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	e := &OpError{Op: op, Value: r}
	switch v := r.(type) {
	case *OpError:
		// A re-raised child failure: keep the inner attribution.
		*err = v
		return
	case *pager.FaultError:
		e.err = v
	case error:
		e.err = v
		e.Stack = debug.Stack()
	default:
		e.err = fmt.Errorf("panic: %v", r)
		e.Stack = debug.Stack()
	}
	*err = e
}
