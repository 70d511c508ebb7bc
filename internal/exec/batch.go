package exec

import "sync"

// This file is the Batch row-vector container every operator exchanges.

// MaxBatchSize bounds the configurable batch capacity so a mistuned
// knob cannot make every scan allocate gigantic row vectors. Capacities
// are clamped into [1, MaxBatchSize] once, where the statement's
// options become its QueryCtx (optimizer.BatchCapacity).
const MaxBatchSize = 65536

// Batch is a row vector exchanged between batched operators, with an
// optional selection vector: filters qualify rows by compacting sel
// instead of copying or moving them, so a selective predicate costs
// one int32 write per surviving row.
//
// Ownership: the consumer owns a batch returned by NextBatch and may
// mutate its selection or replace its contents in place; the producer
// must not touch it again. A consumer that does not pass the batch on
// releases it. The *Row pointers inside are ordinary pipeline rows
// owned by whoever received them (see the Operator ownership rule) and
// stay valid after the container is released — only the container
// recycles through the pool, never row storage.
type Batch struct {
	rows []*Row
	// sel, when non-nil, lists the live row indices in ascending order;
	// nil means rows[0:len(rows)] are all live.
	sel []int32
	// selStore is the retained backing array handed out by selStorage,
	// so filtering a pooled batch allocates no selection vector in
	// steady state.
	selStore []int32
}

// batchPool recycles batch containers (the rows and sel slices). Row
// storage is never pooled: rows escape downstream with unbounded
// lifetime, so recycling their backing arrays would corrupt retained
// results.
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
	b.sel = nil
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
	b.sel = nil
	batchPool.Put(b)
}

// setLen shrinks the physical row vector to n slots, clearing the
// dropped ones: no slot beyond len(rows) ever holds a row pointer, so
// Release only has to clear what the last user filled, not the whole
// (possibly much larger, pooled) container.
func (b *Batch) setLen(n int) {
	clear(b.rows[n:])
	b.rows = b.rows[:n]
}

// Len reports the number of live rows.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return len(b.rows)
}

// Row returns the i-th live row (through the selection vector when one
// is set).
func (b *Batch) Row(i int) *Row {
	if b.sel != nil {
		return b.rows[b.sel[i]]
	}
	return b.rows[i]
}

// Append adds a row. Producers fill batches densely (no selection);
// appending to a batch with a selection vector is a programming error.
func (b *Batch) Append(r *Row) {
	if b.sel != nil {
		panic("exec: Append on a batch with a selection vector")
	}
	b.rows = append(b.rows, r)
}

// selStorage returns an empty selection vector with capacity for n
// entries, reusing the batch's retained backing array.
func (b *Batch) selStorage(n int) []int32 {
	if cap(b.selStore) < n {
		b.selStore = make([]int32, 0, n)
	}
	return b.selStore[:0]
}

// Truncate keeps only the first n live rows (LIMIT).
func (b *Batch) Truncate(n int) {
	if n >= b.Len() {
		return
	}
	if b.sel != nil {
		b.sel = b.sel[:n]
		return
	}
	b.setLen(n)
}

// transformBatch replaces every live row with fn(row), compacting the
// results densely into the same container and consuming any selection
// vector. Safe in place: selection indices ascend, so the write cursor
// never passes the read position. On an fn error the batch is left for
// the caller to release.
func transformBatch(b *Batch, fn func(*Row) (*Row, error)) error {
	out := 0
	for i, n := 0, b.Len(); i < n; i++ {
		row, err := fn(b.Row(i))
		if err != nil {
			return err
		}
		b.rows[out] = row
		out++
	}
	b.setLen(out)
	b.sel = nil
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
