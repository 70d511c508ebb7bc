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

// RowGoal is the batch sizing every leaf shares. Goal is the row goal
// the compiler hands the leaf, as it hands it a PartitionSpec: how many
// rows a LIMIT above still wants when only row-preserving operators sit
// between them (0: no goal). The first batch after Open holds Goal rows
// and each later one twice the last, up to the query's capacity, so a
// top-k reads about k rows, and a selective filter between the LIMIT
// and the leaf costs a few short batches before the leaf is back at
// full capacity.
type RowGoal struct {
	Goal int

	next int // the size of the next goal-sized batch; 0 once at capacity
}

// startGoal restarts the sizing at Goal; every leaf's Open calls it.
func (g *RowGoal) startGoal() { g.next = g.Goal }

// batchSize returns the row count of the leaf's next batch.
func (g *RowGoal) batchSize(qc *QueryCtx) int {
	c := qc.Capacity()
	if g.next <= 0 || g.next >= c {
		g.next = 0
		return c
	}
	n := g.next
	g.next *= 2
	return n
}

// SeqScan reads a table in physical order. It fetches no summary sets:
// an AttachSummaries above it does, when something needs them.
// With a PartitionSpec set it reads only its page-range share, so Of
// scans with Index 0..Of-1 together cover the table exactly once, in
// partition order equal to the serial scan order. Under a row goal its
// first batches are goal-sized (RowGoal).
type SeqScan struct {
	Table *catalog.Table
	Alias string
	Part  PartitionSpec
	RowGoal

	schema *model.Schema
	cursor *heap.Cursor[[]model.Value]
	home   batchHome
}

// NewSeqScan builds a sequential scan.
func NewSeqScan(t *catalog.Table, alias string) *SeqScan {
	if alias == "" {
		alias = t.Name
	}
	return &SeqScan{Table: t, Alias: alias, schema: t.Schema.Rename(alias)}
}

// Open positions the scan at the first tuple of its partition.
func (s *SeqScan) Open(qc *QueryCtx) (err error) {
	defer recoverOp("SeqScan", &err)
	if err := qc.check(); err != nil {
		return err
	}
	s.startGoal()
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

// NextBatch fills a row vector from the cursor, taking the row slots
// from the batch's slab in one call. Cancellation is polled and the
// deferred panic trap paid once per batch.
func (s *SeqScan) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SeqScan", &err)
	size := s.batchSize(qc)
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	var rows []Row
	for n := 0; n < size; n++ {
		_, oid, values, ok := s.cursor.Next()
		if !ok {
			break
		}
		if b == nil {
			// Lazily take the container and the slots so the terminal
			// empty call costs nothing.
			b = s.home.get(size)
			rows = b.slab.take(size)
		}
		*rows[n].Tuple = model.Tuple{OID: oid, Values: values} // a reused slot: no stale set
		b.Append(&rows[n])
	}
	return b, nil
}

// Close releases the cursor (unpinning its buffer-pool frame when the
// scan stopped mid-page) and hands the free batches to the pool.
func (s *SeqScan) Close() error {
	s.home.close()
	if s.cursor != nil {
		s.cursor.Close()
		s.cursor = nil
	}
	return nil
}

// Schema returns the scan's output schema (table columns under alias).
func (s *SeqScan) Schema() *model.Schema { return s.schema }

// fetch loads the base tuple at a known heap location into a row carved
// from s: the per-hit fetch of the index scans and the index join.
func (s *rowSlab) fetch(t *catalog.Table, rid heap.RID) (*Row, bool) {
	oid, values, ok := t.Data.Get(rid)
	if !ok {
		return nil, false
	}
	row, _ := s.carve(0)
	row.Tuple.OID, row.Tuple.Values = oid, values
	return row, true
}

// AttachSummaries sets each row's summary set from its table's
// R_SummaryStorage: the one place a scan path fetches summaries. The
// compiler puts it above the data-only selections on its leaf, so a row
// those selections drop never pays for its set. The leaf's tuples belong
// to the batch, so the set is attached in place.
type AttachSummaries struct {
	Input Operator
	Table *catalog.Table
}

// NewAttachSummaries builds the attach over a single-table input.
func NewAttachSummaries(in Operator, t *catalog.Table) *AttachSummaries {
	return &AttachSummaries{Input: in, Table: t}
}

// Open opens the input.
func (a *AttachSummaries) Open(qc *QueryCtx) error { return a.Input.Open(qc) }

// NextBatch attaches the summary sets of the input batch's rows.
func (a *AttachSummaries) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("AttachSummaries", &err)
	b, err = a.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	for i, n := 0, b.Len(); i < n; i++ {
		t := b.Row(i).Tuple
		t.Summaries = a.Table.GetSummaries(t.OID)
	}
	return b, nil
}

// Close closes the input.
func (a *AttachSummaries) Close() error { return a.Input.Close() }

// Schema returns the input schema.
func (a *AttachSummaries) Schema() *model.Schema { return a.Input.Schema() }
