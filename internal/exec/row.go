// Package exec implements the physical operators of the extended query
// engine, all exchanging row batches through one protocol (Operator):
// scans (sequential, Summary-BTree, baseline, and data-index), the
// summary attach that reads their tuples' summary sets, the standard
// operators with summary-aware semantics (selection,
// projection, joins with summary merge, grouping, sort), and the new
// summary-based physical operators of Section 3.2 — filter (F),
// selection (S), join (J), and sort (O).
package exec

import (
	"strings"

	"repro/internal/model"
)

// Row is one tuple flowing through the pipeline: data values (under
// Schema), the attached summary set, and — between a join's predicate
// evaluation and its merge — per-alias summary sets so that r.$ and s.$
// resolve to their own sides.
type Row struct {
	Tuple *model.Tuple

	// AliasSets maps a table alias (lower-case) to that side's summary
	// set. When nil, Tuple.Summaries serves every alias. Join operators
	// populate it while evaluating join predicates and on their outputs
	// (where every alias maps to the merged set).
	AliasSets map[string]model.SummarySet
}

// SetFor resolves the $ variable for a qualifier.
func (r *Row) SetFor(qualifier string) model.SummarySet {
	if r.AliasSets != nil {
		if s, ok := r.AliasSets[strings.ToLower(qualifier)]; ok {
			return s
		}
		if qualifier == "" && len(r.AliasSets) == 1 {
			for _, s := range r.AliasSets {
				return s
			}
		}
	}
	return r.Tuple.Summaries
}

// Clone deep-copies the row (alias sets are re-pointed at the clone's
// summary set when they aliased the original's).
func (r *Row) Clone() *Row {
	out := &Row{Tuple: r.Tuple.Clone()}
	if r.AliasSets != nil {
		out.AliasSets = make(map[string]model.SummarySet, len(r.AliasSets))
		for k, v := range r.AliasSets {
			out.AliasSets[k] = v.Clone()
		}
	}
	return out
}
