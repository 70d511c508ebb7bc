// Package exec implements the physical operators of the extended query
// engine, all exchanging row batches through one protocol (Operator):
// scans (sequential, Summary-BTree, baseline, and data-index), the
// summary attach that reads their tuples' summary sets, the standard
// operators with summary-aware semantics (selection,
// projection, joins with summary merge, grouping, sort), and the new
// summary-based physical operators of Section 3.2 — filter (F),
// selection (S), join (J), and sort (O). Every row an operator emits
// holds its summaries in one place, Tuple.Summaries; a join evaluates
// its predicate on the (outer, inner) pair before any merge, with each
// column and x.$ resolved to its side when the predicate is bound.
package exec

import "repro/internal/model"

// Row is one tuple flowing through the pipeline: data values (under
// Schema) and the attached summary set.
type Row struct {
	Tuple *model.Tuple

	// Inner is set only on the pair row a join probe evaluates its
	// predicate on: Tuple is then the outer row's tuple and Inner the
	// inner row, each with its own pre-merge summary set. An Evaluator
	// with a join split reads the inner side's columns and x.$ through
	// it.
	Inner *Row
}

// appendRowKey appends the equality key of a value list to dst: each
// value's model key and a 0 byte. Grouping and duplicate elimination
// build it in bytes they reuse and probe their maps with string(key),
// which Go does not copy; only a new entry allocates its key.
func appendRowKey(dst []byte, vals []model.Value) []byte {
	for _, v := range vals {
		dst = append(v.AppendSortKey(dst), 0)
	}
	return dst
}

// maxSlabRows caps how many rows a rowSlab (and Sort, for its keys)
// carves from one refill.
const maxSlabRows = 256

// rowSlab carves output rows — a Row, its Tuple and its values — from
// slabs allocated together: three allocations per refill instead of
// three per row. A refill covers the rest of the batch in flight
// (left), or double the previous slab up to maxSlabRows when that is
// more, so a five-row result allocates five rows, a large batch
// allocates once, and a capacity-1 stream still amortizes to a few
// allocations per 256 rows. Carved storage belongs to the consumer and
// is never written again (see the Operator ownership rule).
type rowSlab struct {
	rows   []Row
	tuples []model.Tuple
	vals   []model.Value
	pos    int
	left   int // rows of the batch in flight that still need storage
}

// carve returns storage for one output row of k values.
func (s *rowSlab) carve(k int) (*Row, *model.Tuple, []model.Value) {
	if s.pos == len(s.rows) || len(s.vals) < k {
		n := max(s.left, min(2*len(s.rows), maxSlabRows), 1)
		s.rows, s.tuples, s.vals, s.pos = make([]Row, n), make([]model.Tuple, n), make([]model.Value, n*k), 0
	}
	row, tup, vals := &s.rows[s.pos], &s.tuples[s.pos], s.vals[:k:k]
	s.pos++
	s.left--
	s.vals = s.vals[k:]
	return row, tup, vals
}
