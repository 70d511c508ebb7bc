package exec

import "repro/internal/model"

// Operator is the one physical-operator protocol: Open, a stream of
// NextBatch calls each returning a row batch of at most qc.Capacity()
// rows (a nil batch is end-of-stream), and Close. The query's lifecycle
// — cancellation, budget, batch capacity — reaches an operator only as
// the argument of Open and NextBatch; a parent passes its children what
// it was handed (Gather and the partitioned breakers pass each worker a
// derived context instead), and no operator keeps it. Close takes none:
// what Open charged sits in the operator's reservation. Capacity 1 is
// tuple-at-a-time Volcano through the same code; larger capacities
// amortize the per-call overhead (interface dispatch, recoverOp defers,
// cancellation polls) over the batch.
//
// Ownership rule: the consumer owns a batch returned by NextBatch (see
// Batch). A row inside it belongs to the consumer too and stays valid
// indefinitely — the producer never writes to it again, even across
// Close. Producers may therefore carve row storage from amortizing
// slabs (SeqScan, Project), but must hand each slot out exactly once.
// Rows are shared structurally up the pipeline (a filter forwards its
// input's rows; joins point into both sides), so a consumer that wants
// to mutate a row must copy it first (Row.Clone).
type Operator interface {
	Open(qc *QueryCtx) error
	NextBatch(qc *QueryCtx) (*Batch, error)
	Close() error
	Schema() *model.Schema
}

// drain pulls op to end-of-stream, handing every live row to fn in
// order. Each consumed batch is released on every path — success, an
// fn error (budget, cancellation), or an input error — which is how
// the pipeline breakers keep the batch pool free of row pointers.
func drain(qc *QueryCtx, op Operator, fn func(*Row) error) error {
	for {
		b, err := op.NextBatch(qc)
		if err != nil || b == nil {
			return err
		}
		for i, n := 0, b.Len(); i < n; i++ {
			if err := fn(b.Row(i)); err != nil {
				b.Release()
				return err
			}
		}
		b.Release()
	}
}

// run is drain with the lifecycle around it: Open, drain, Close. Close
// runs even when Open fails, so resources a partially-successful Open
// acquired (spilled sort runs, budget charges) are released on every
// path.
func run(qc *QueryCtx, op Operator, fn func(*Row) error) error {
	if err := op.Open(qc); err != nil {
		op.Close()
		return err
	}
	defer op.Close()
	return drain(qc, op, fn)
}

// Collect is the result boundary — the one place rows leave batches for
// the caller: it runs the operator tree to completion under qc and
// returns the rows in order.
func Collect(qc *QueryCtx, op Operator) ([]*Row, error) {
	var out []*Row
	if err := run(qc, op, func(r *Row) error { out = append(out, r); return nil }); err != nil {
		return nil, err
	}
	return out, nil
}

// nextRows returns the next batch of a materialized row slice — up to
// qc.Capacity() rows from *pos, which it advances — or nil when the
// slice is exhausted. It is how every materializing operator (sort,
// distinct, sliceIter) emits.
func nextRows(qc *QueryCtx, rows []*Row, pos *int) *Batch {
	n := len(rows) - *pos
	if n <= 0 {
		return nil
	}
	if c := qc.Capacity(); n > c {
		n = c
	}
	b := GetBatch(n)
	b.rows = append(b.rows, rows[*pos:*pos+n]...)
	*pos += n
	return b
}

// sliceIter replays a materialized row slice; tests use it as a stub
// source.
type sliceIter struct {
	schema *model.Schema
	rows   []*Row
	pos    int
}

// NewSliceIter builds an operator over pre-materialized rows.
func NewSliceIter(schema *model.Schema, rows []*Row) Operator {
	return &sliceIter{schema: schema, rows: rows}
}

func (s *sliceIter) Open(qc *QueryCtx) error { s.pos = 0; return qc.check() }

func (s *sliceIter) NextBatch(qc *QueryCtx) (*Batch, error) {
	if err := qc.tick(qc.Capacity()); err != nil {
		return nil, err
	}
	return nextRows(qc, s.rows, &s.pos), nil
}

func (s *sliceIter) Close() error          { return nil }
func (s *sliceIter) Schema() *model.Schema { return s.schema }
