package exec

import (
	"context"
	"errors"
	"sync"

	"repro/internal/model"
)

// This file is the intra-query parallel execution layer: the Gather
// exchange operator and runPartitions, the one open path of the
// pipeline breakers (GroupBy, HashJoin's build), whose input is a list
// of partitions. The contract throughout is determinism: workers own
// consecutive partitions of the scanned table or sorted index hits, and
// everything that merges worker results does so in partition order, so
// a parallel plan produces byte-identical output to the serial plan it
// replaces.

// gatherBufferRows is about how many rows each worker may run ahead of
// the coordinator: enough to keep workers busy while the coordinator
// drains earlier partitions, small enough that a LIMIT above the Gather
// doesn't materialize the table. The per-worker channel holds that many
// rows' worth of batches at the query's capacity (at least one batch).
const gatherBufferRows = 128

// Gather runs its worker operators — each one partition of a parallel
// plan fragment — on their own goroutines and emits their batches in
// partition order: all of worker 0, then all of worker 1, and so on.
// Because partitions are consecutive page ranges, that is exactly the
// serial scan order, so replacing a pipeline with Gather(partitions)
// changes performance, never results. Workers hand whole batches across
// their channels and run ahead into bounded buffers, so
// partition-ordered emission still overlaps their I/O.
type Gather struct {
	Workers []Operator

	schema *model.Schema

	cancel context.CancelFunc
	wg     sync.WaitGroup
	chans  []chan *Batch
	// errs[i] is worker i's terminal error, written before its channel
	// is closed and read only after the close is observed — so it cannot
	// be lost to a full buffer.
	errs   []error
	cur    int
	failed error
}

// NewGather builds the exchange over one operator per partition.
func NewGather(workers []Operator) *Gather {
	return &Gather{Workers: workers, schema: workers[0].Schema()}
}

// Open spawns the worker pool. Each worker drives its operator to
// completion (or first error) on its own goroutine, under a derived
// context — the parent's budget and capacity, a child cancellation
// scope — cancelled when the Gather closes or any sibling fails.
func (g *Gather) Open(qc *QueryCtx) (err error) {
	defer recoverOp("Gather", &err)
	if err := qc.check(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(qc.Context())
	g.cancel = cancel
	g.chans = make([]chan *Batch, len(g.Workers))
	g.errs = make([]error, len(g.Workers))
	g.cur = 0
	g.failed = nil
	depth := max(1, gatherBufferRows/qc.Capacity())
	for i, w := range g.Workers {
		out := make(chan *Batch, depth)
		g.chans[i] = out
		wqc := qc.Child(ctx)
		g.wg.Add(1)
		go func(i int, w Operator) {
			defer g.wg.Done()
			defer close(out)
			if g.errs[i] = driveWorker(wqc, w, out); g.errs[i] != nil {
				cancel() // stop the sibling workers early
			}
		}(i, w)
	}
	return nil
}

// driveWorker runs one worker operator to completion, streaming its
// batches into out, and returns its terminal error. Panics inside the
// worker's operators are already converted to errors by their own
// recoverOp guards; the guard here catches anything escaping the drive
// loop itself so a worker can never crash the process.
func driveWorker(qc *QueryCtx, w Operator, out chan<- *Batch) (err error) {
	defer recoverOp("ParallelWorker", &err)
	if err := w.Open(qc); err != nil {
		w.Close()
		return err
	}
	defer w.Close()
	ctx := qc.Context()
	for {
		b, err := w.NextBatch(qc)
		if err != nil || b == nil {
			return err
		}
		b.home = nil // released on the query goroutine, into the pool
		select {
		case out <- b:
		case <-ctx.Done():
			b.Release()
			return ctx.Err()
		}
	}
}

// NextBatch emits the next batch in partition order.
func (g *Gather) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("Gather", &err)
	if err := qc.tick(qc.Capacity()); err != nil {
		return nil, err
	}
	if g.failed != nil {
		return nil, g.failed
	}
	for g.cur < len(g.chans) {
		if b, ok := <-g.chans[g.cur]; ok {
			return b, nil
		}
		if g.errs[g.cur] == nil {
			g.cur++
			continue
		}
		// A failing worker cancels its siblings, so an earlier partition
		// may report the induced context.Canceled rather than the root
		// cause. Drain the rest (they exit promptly once cancelled) and
		// prefer a substantive error.
		for i := g.cur; i < len(g.chans); i++ {
			for b := range g.chans[i] {
				b.Release()
			}
			g.failed = firstError(g.failed, g.errs[i])
		}
		g.cur = len(g.chans)
		return nil, g.failed
	}
	return nil, nil
}

// isCancellation reports whether err is (or wraps) a context error.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// firstError picks which of two worker errors to report: the earlier
// one, unless it is only the cancellation a failing sibling induced and
// the later one is the substantive cause.
func firstError(first, next error) error {
	if first == nil || (next != nil && isCancellation(first) && !isCancellation(next)) {
		return next
	}
	return first
}

// Close cancels the workers and waits for the pool to drain, so no
// worker goroutine outlives its query.
func (g *Gather) Close() error {
	if g.cancel != nil {
		g.cancel()
		g.cancel = nil
	}
	// Unblock workers stuck sending into full buffers: the cancelled
	// context handles that via the select in driveWorker.
	g.wg.Wait()
	g.chans = nil
	return nil
}

// Schema returns the (shared) worker schema.
func (g *Gather) Schema() *model.Schema { return g.schema }

// runPartitions is the open path of the pipeline breakers (GroupBy,
// HashJoin's build): it runs every partition operator to completion,
// handing partition i's rows to the consumer sink(i) returns — so each
// consumer must own its state — and returns once all have exited. One
// partition, the serial plan, runs inline on the query goroutine.
// Several run on their own goroutines under derived per-worker
// lifecycles; the first failure cancels the sibling partitions, and the
// error reported is the substantive one, not the cancellation it
// induced.
func runPartitions(qc *QueryCtx, parts []Operator, sink func(part int) func(b *Batch, i int) error) error {
	if len(parts) == 1 {
		return run(qc, parts[0], sink(0))
	}
	ctx, cancel := context.WithCancel(qc.Context())
	defer cancel()
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wqc := qc.Child(ctx)
		wg.Add(1)
		go func(i int, p Operator) {
			defer wg.Done()
			errs[i] = func() (err error) {
				defer recoverOp("ParallelWorker", &err)
				return run(wqc, p, sink(i))
			}()
			if errs[i] != nil {
				cancel() // stop the sibling partitions early
			}
		}(i, p)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		first = firstError(first, err)
	}
	return first
}
