package exec

import (
	"strings"

	"repro/internal/model"
)

// Limit passes through at most N rows.
type Limit struct {
	Input Operator
	N     int

	seen int
}

// NewLimit builds a LIMIT node.
func NewLimit(in Operator, n int) *Limit { return &Limit{Input: in, N: n} }

// Open opens the input.
func (l *Limit) Open(qc *QueryCtx) error {
	l.seen = 0
	return l.Input.Open(qc)
}

// NextBatch passes batches through, truncating the one that crosses the
// limit.
func (l *Limit) NextBatch(qc *QueryCtx) (*Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	if rem := l.N - l.seen; b.Len() > rem {
		b.Truncate(rem)
	}
	l.seen += b.Len()
	return b, nil
}

// Close closes the input.
func (l *Limit) Close() error { return l.Input.Close() }

// Schema returns the input schema.
func (l *Limit) Schema() *model.Schema { return l.Input.Schema() }

// Distinct eliminates duplicate rows by value. Per the summary-aware
// duplicate-elimination semantics, the summaries of collapsed duplicates
// are merged so no annotation's contribution is lost or double-counted.
type Distinct struct {
	Input  Operator
	Lookup model.AnnotationLookup

	rows []*Row
	pos  int
	res  reservation // one charge per retained row
}

// NewDistinct builds the node.
func NewDistinct(in Operator, lookup model.AnnotationLookup) *Distinct {
	return &Distinct{Input: in, Lookup: lookup}
}

// Open drains the input, collapsing duplicates; a retained row leaves
// with the merge of its own and its duplicates' summary sets. Distinct is
// a pipeline breaker: every retained row is charged against the query
// budget, and Open fails fast with ErrBudgetExceeded at the buffer limit.
func (d *Distinct) Open(qc *QueryCtx) (err error) {
	defer recoverOp("Distinct", &err)
	d.res.bind(qc, "Distinct")
	byKey := map[string]int{}
	var merged []*model.SetAccumulator // parallel to d.rows
	d.rows, d.pos = nil, 0
	err = run(qc, d.Input, func(row *Row) error {
		var kb strings.Builder
		for _, v := range row.Tuple.Values {
			kb.WriteString(v.SortKey())
			kb.WriteByte(0)
		}
		key := kb.String()
		i, ok := byKey[key]
		if !ok {
			if cerr := d.res.charge(1, approxRowBytes(row)); cerr != nil {
				return cerr
			}
			i, byKey[key] = len(d.rows), len(d.rows)
			d.rows = append(d.rows, row)
			merged = append(merged, model.NewSetAccumulator(d.Lookup))
		}
		merged[i].Add(row.Tuple.Summaries)
		return nil
	})
	for i, acc := range merged {
		d.rows[i] = &Row{Tuple: d.rows[i].Tuple.ShallowWithValues(d.rows[i].Tuple.Values)}
		d.rows[i].Tuple.Summaries = acc.Result()
	}
	return err
}

// NextBatch emits the next distinct rows.
func (d *Distinct) NextBatch(qc *QueryCtx) (*Batch, error) {
	if err := qc.tick(qc.Capacity()); err != nil {
		return nil, err
	}
	return nextRows(qc, d.rows, &d.pos), nil
}

// Close releases buffered rows and their budget charge.
func (d *Distinct) Close() error {
	d.rows = nil
	d.res.releaseAll()
	return nil
}

// Schema returns the input schema.
func (d *Distinct) Schema() *model.Schema { return d.Input.Schema() }
