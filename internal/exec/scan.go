package exec

import (
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/model"
)

// PartitionSpec selects one slice of a partitioned parallel scan:
// partition Index of Of equal page-range shares. The zero value (Of 0
// or 1) means "the whole table".
type PartitionSpec struct {
	Index int
	Of    int
}

// SeqScan reads a table in physical order, optionally attaching each
// tuple's summary set from R_SummaryStorage (summary propagation).
// With a PartitionSpec set it reads only its page-range share, so Of
// scans with Index 0..Of-1 together cover the table exactly once, in
// partition order equal to the serial scan order.
type SeqScan struct {
	Table     *catalog.Table
	Alias     string
	Propagate bool
	Part      PartitionSpec

	schema *model.Schema
	cursor *heap.Cursor[[]model.Value]
}

// NewSeqScan builds a sequential scan.
func NewSeqScan(t *catalog.Table, alias string, propagate bool) *SeqScan {
	if alias == "" {
		alias = t.Name
	}
	return &SeqScan{Table: t, Alias: alias, Propagate: propagate,
		schema: t.Schema.Rename(alias)}
}

// Open positions the scan at the first tuple of its partition.
func (s *SeqScan) Open(qc *QueryCtx) (err error) {
	defer recoverOp("SeqScan", &err)
	if err := qc.check(); err != nil {
		return err
	}
	if s.Part.Of > 1 {
		pages := s.Table.Data.Pages()
		start := pages * s.Part.Index / s.Part.Of
		end := pages * (s.Part.Index + 1) / s.Part.Of
		s.cursor = s.Table.Data.RangeCursor(start, end)
	} else {
		s.cursor = s.Table.Data.Cursor()
	}
	return nil
}

// NextBatch fills a row vector from the cursor. Row and Tuple storage
// is carved from two per-batch slabs (two allocations per batch instead
// of two per row). A scan's rows carry no per-alias summary map: they
// have one alias, and SetFor falls back to Tuple.Summaries. Cancellation
// is polled and the deferred panic trap paid once per batch.
func (s *SeqScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SeqScan", &err)
	size := qc.Capacity()
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	var rows []Row
	var tuples []model.Tuple
	for n := 0; n < size; n++ {
		_, oid, values, ok := s.cursor.Next()
		if !ok {
			break
		}
		if b == nil {
			// Lazily take the container and carve the slabs so the
			// terminal empty call costs nothing.
			b = GetBatch(size)
			rows = make([]Row, size)
			tuples = make([]model.Tuple, size)
		}
		t := &tuples[n]
		t.OID, t.Values = oid, values
		r := &rows[n]
		r.Tuple = t
		if s.Propagate {
			t.Summaries = s.Table.GetSummaries(oid)
		}
		b.Append(r)
	}
	return b, nil
}

// Close releases the cursor (unpinning its buffer-pool frame when the
// scan stopped mid-page).
func (s *SeqScan) Close() error {
	if s.cursor != nil {
		s.cursor.Close()
		s.cursor = nil
	}
	return nil
}

// Schema returns the scan's output schema (table columns under alias).
func (s *SeqScan) Schema() *model.Schema { return s.schema }

// fetchRow loads a base tuple at a known heap location and wraps it as a
// pipeline row; shared by the index scans.
func fetchRow(t *catalog.Table, rid heap.RID, propagate bool) (*Row, bool) {
	tu, ok := t.GetAt(rid)
	if !ok {
		return nil, false
	}
	if propagate {
		tu.Summaries = t.GetSummaries(tu.OID)
	}
	return &Row{Tuple: tu}, true
}
