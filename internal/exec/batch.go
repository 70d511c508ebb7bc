package exec

import (
	"slices"
	"sync"
)

// This file is the Batch row-vector container every operator exchanges.

// MaxBatchSize bounds the configurable batch capacity so a mistuned
// knob cannot make every scan allocate gigantic row vectors. Capacities
// are clamped into [1, MaxBatchSize] once, where the statement's
// options become its QueryCtx (optimizer.BatchCapacity).
const MaxBatchSize = 65536

// Batch is a row vector exchanged between batched operators; every row
// in it is live. A batch holds row pointers only, so a filter keeps its
// survivors by compacting the pointers to the front (PredicateFilter):
// one pointer write per surviving row, which is all a selection vector
// would save.
//
// Ownership: the consumer owns a batch returned by NextBatch and may
// compact, truncate or replace its contents in place; the producer
// must not touch it again. A consumer that does not pass the batch on
// releases it, which ends the rows that live in its slab (see the
// Operator ownership rule).
type Batch struct {
	rows []*Row
	slab rowSlab    // SeqScan's or the join probe's rows, until Release
	home *batchHome // where Release returns the batch; nil: batchPool
}

// batchPool recycles batch containers; a batch with a home goes there,
// as a container the pool drops (race builds drop some) loses its slab.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// batchHome keeps a producer's released batches for its next ones, on
// one goroutine: a Gather worker hands its batches on homeless. close
// gives them, slabs and all, to the pool.
type batchHome struct{ free []*Batch }

func (h *batchHome) get(capacity int) (b *Batch) {
	if h != nil && len(h.free) > 0 {
		b, h.free = h.free[len(h.free)-1], h.free[:len(h.free)-1]
	} else {
		b = batchPool.Get().(*Batch)
		b.home = h
	}
	b.rows = slices.Grow(b.rows, capacity)
	return b
}

func (h *batchHome) close() {
	for _, b := range h.free {
		b.home = nil
		batchPool.Put(b)
	}
	h.free = nil
}

// GetBatch returns an empty batch of no home whose container holds at
// least capacity rows without growing.
func GetBatch(capacity int) *Batch { return (*batchHome)(nil).get(capacity) }

// Release clears the container and returns it to its home or the pool.
// The caller must not use the batch afterwards.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	b.setLen(0) // drop row references so no free container retains rows
	b.slab.rewind()
	if b.home == nil {
		batchPool.Put(b)
	} else {
		b.home.free = append(b.home.free, b)
	}
}

// setLen shrinks the row vector to n slots, clearing the dropped ones:
// no slot beyond len(rows) ever holds a row pointer, so Release only
// has to clear what the last user filled, not the whole (possibly much
// larger, pooled) container.
func (b *Batch) setLen(n int) {
	clear(b.rows[n:])
	b.rows = b.rows[:n]
}

// Len reports the number of rows.
func (b *Batch) Len() int { return len(b.rows) }

// Row returns the i-th row.
func (b *Batch) Row(i int) *Row { return b.rows[i] }

// Append adds a row.
func (b *Batch) Append(r *Row) { b.rows = append(b.rows, r) }

// Truncate keeps only the first n rows (LIMIT).
func (b *Batch) Truncate(n int) {
	if n < len(b.rows) {
		b.setLen(n)
	}
}

// transformBatch replaces every row with fn(row), in place and in
// order. On an fn error the batch is left for the caller to release.
func transformBatch(b *Batch, fn func(*Row) (*Row, error)) error {
	for i, row := range b.rows {
		row, err := fn(row)
		if err != nil {
			return err
		}
		b.rows[i] = row
	}
	return nil
}

// nonEmpty ends a producer's fill loop: it returns b, or — when nothing
// was appended — releases it and returns nil, the end-of-stream signal.
func nonEmpty(b *Batch) *Batch {
	if b.Len() == 0 {
		b.Release()
		return nil
	}
	return b
}
