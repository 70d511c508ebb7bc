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
