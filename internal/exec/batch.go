package exec

import "sync"

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
// releases it. The *Row pointers inside are ordinary pipeline rows
// owned by whoever received them (see the Operator ownership rule) and
// stay valid after the container is released — only the container
// recycles through the pool, never row storage.
type Batch struct {
	rows []*Row
}

// batchPool recycles batch containers. Row storage is never pooled:
// rows escape downstream with unbounded lifetime, so recycling their
// backing arrays would corrupt retained results.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// GetBatch returns an empty batch whose container holds at least
// capacity rows without growing.
func GetBatch(capacity int) *Batch {
	b := batchPool.Get().(*Batch)
	if cap(b.rows) < capacity {
		b.rows = make([]*Row, 0, capacity)
	} else {
		b.rows = b.rows[:0]
	}
	return b
}

// Release clears the container and returns it to the pool. The caller
// must not use the batch afterwards; rows previously handed out remain
// valid.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	b.setLen(0) // drop row references so the pool retains no rows
	batchPool.Put(b)
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
