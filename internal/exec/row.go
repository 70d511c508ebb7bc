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

// rowSlab is the one row carver: every operator that makes rows takes
// its Row, Tuple and value slots from one, three allocations per refill
// instead of three per row. Each Row slot already points at its own
// Tuple slot. A refill covers the rows asked for or the rest of the
// batch in flight (left, set by the carver), or with at most one row
// left double the previous slab up to maxSlabRows: a five-row result
// allocates five rows, a large batch once with no spare slots, and a
// capacity-1 stream a few times per 256 rows. A batch's slab is rewound
// for reuse by Release; any other hands each slot out once.
type rowSlab struct {
	rows      []Row
	vals      []model.Value
	pos, vpos int // the next free row and value slot
	left      int // rows of the batch in flight that still need storage
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
	row, vals := &s.rows[s.pos], s.vals[s.vpos:s.vpos+k:s.vpos+k]
	s.pos, s.vpos = s.pos+1, s.vpos+k
	s.left--
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

// keep copies b's i-th row for an operator that holds it past b's
// Release: a fresh Row and Tuple, fresh values if b's slab holds them
// (a join's rows; a scan's values are the table's), and extra values.
func (s *rowSlab) keep(b *Batch, i, extra int) (*Row, []model.Value) {
	row, n := b.rows[i], 0
	if b.slab.vpos > 0 {
		n = len(row.Tuple.Values)
	}
	out, vals := s.carve(extra + n)
	*out.Tuple = *row.Tuple
	if copy(vals[extra:], row.Tuple.Values) > 0 {
		out.Tuple.Values = vals[extra:]
	}
	return out, vals[:extra:extra]
}

// reserve refills the slab unless n rows of k values each remain.
func (s *rowSlab) reserve(n, k int) {
	if s.pos+n <= len(s.rows) && len(s.vals)-s.vpos >= n*k {
		return
	}
	m := max(n, s.left)
	if s.left <= 1 {
		m = max(m, min(2*len(s.rows), maxSlabRows))
	}
	tuples := make([]model.Tuple, m)
	s.rows, s.vals, s.pos, s.vpos = make([]Row, m), make([]model.Value, m*k), 0, 0
	for i := range s.rows {
		s.rows[i].Tuple = &tuples[i]
	}
}

// poisonReleased is set in race builds: rewind then blanks the rows it
// ends (OID -1, no values), so a row kept uncopied shows.
var poisonReleased bool

// rewind readies a batch's slab for its producer's next batch.
func (s *rowSlab) rewind() {
	if poisonReleased {
		for i := range s.rows[:s.pos] {
			*s.rows[i].Tuple = model.Tuple{OID: -1}
		}
		clear(s.vals[:s.vpos])
	}
	s.pos, s.vpos = 0, 0
}
