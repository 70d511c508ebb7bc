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

// maxSlabRows caps how many rows a rowSlab carves from one refill.
const maxSlabRows = 256

// rowSlab is the one row carver: every operator that makes rows — the
// scans, the fetches, Project, the join probe, the summary rewrites and
// the copies Sort and Distinct keep (a slab lives as long as any of its
// rows, so a breaker does not keep its input's slabs alive) — takes its
// Row, Tuple and value slots from one, three allocations per refill
// instead of three per row. Each Row slot already points at its own
// Tuple slot. A refill covers the rows asked for, the rest of the batch
// in flight (left), or double the previous slab up to maxSlabRows,
// whichever is most, so a five-row result allocates five rows, a large
// batch allocates once, and a capacity-1 stream still amortizes to a
// few allocations per 256 rows. Carved storage belongs to the consumer
// and is never written again (see the Operator ownership rule).
type rowSlab struct {
	rows []Row
	vals []model.Value
	pos  int
	left int // rows of the batch in flight that still need storage
}

// take returns n fresh rows, each pointing at a fresh Tuple. Leaves
// take a batch's or a page run's slots in one call: a carve per row
// costs a call in the scan's hottest loop.
func (s *rowSlab) take(n int) []Row {
	s.reserve(n, 0)
	s.pos += n
	return s.rows[s.pos-n : s.pos : s.pos]
}

// carve returns one fresh row, pointing at a fresh Tuple, and k fresh
// values for it.
func (s *rowSlab) carve(k int) (*Row, []model.Value) {
	s.reserve(1, k)
	row, vals := &s.rows[s.pos], s.vals[:k:k]
	s.pos++
	s.left--
	s.vals = s.vals[k:]
	return row, vals
}

// shallow returns a fresh copy of row whose tuple shares row's values
// but carries set: how a summary rewrite changes a row it does not own.
func (s *rowSlab) shallow(row *Row, set model.SummarySet) *Row {
	out, _ := s.carve(0)
	*out.Tuple = *row.Tuple
	out.Tuple.Summaries = set
	return out
}

// reserve refills the slab unless n rows of k values each remain.
func (s *rowSlab) reserve(n, k int) {
	if s.pos+n <= len(s.rows) && len(s.vals) >= n*k {
		return
	}
	m := max(n, s.left, min(2*len(s.rows), maxSlabRows))
	tuples := make([]model.Tuple, m)
	s.rows, s.vals, s.pos = make([]Row, m), make([]model.Value, m*k), 0
	for i := range s.rows {
		s.rows[i].Tuple = &tuples[i]
	}
}
