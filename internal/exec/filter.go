package exec

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// PredicateFilter implements both the standard selection σ (data-based
// predicates) and the summary-based selection S of Section 3.2: a tuple
// passes iff the predicate holds; qualifying tuples keep all their
// summary objects unchanged. The two operators share this physical
// implementation and differ only in what their predicates reference —
// the distinction lives in the logical plan where the rewrite rules need
// it.
type PredicateFilter struct {
	Input Operator
	Pred  sql.Expr
	// Summary marks this node as the S operator (for EXPLAIN output).
	Summary bool
	Lookup  model.AnnotationLookup

	bound boundPred
}

// NewFilter builds a σ node.
func NewFilter(in Operator, pred sql.Expr, lookup model.AnnotationLookup) *PredicateFilter {
	return &PredicateFilter{Input: in, Pred: pred, Lookup: lookup}
}

// NewSummarySelect builds an S node.
func NewSummarySelect(in Operator, pred sql.Expr, lookup model.AnnotationLookup) *PredicateFilter {
	return &PredicateFilter{Input: in, Pred: pred, Summary: true, Lookup: lookup}
}

// Open binds the predicate and opens the input.
func (f *PredicateFilter) Open(qc *QueryCtx) (err error) {
	defer recoverOp("Filter", &err)
	f.bound = (&Evaluator{Schema: f.Input.Schema(), Lookup: f.Lookup}).BindPred(f.Pred)
	return f.Input.Open(qc)
}

// NextBatch filters input batches with the bound predicate, compacting
// each batch's selection vector in place (no row copies) and skipping
// batches the predicate empties.
func (f *PredicateFilter) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("Filter", &err)
	for {
		b, err := f.Input.NextBatch(qc)
		if err != nil || b == nil {
			return nil, err
		}
		if err := FilterBatch(f.bound, b); err != nil {
			b.Release()
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
		b.Release()
	}
}

// Close closes the input.
func (f *PredicateFilter) Close() error { return f.Input.Close() }

// Schema returns the input schema (selection preserves it).
func (f *PredicateFilter) Schema() *model.Schema { return f.Input.Schema() }

// SummaryFilter implements the F operator of Section 3.2: every tuple
// passes, but only its summary objects satisfying the structural
// predicate — instance-name or summary-type membership — are kept.
type SummaryFilter struct {
	Input Operator
	// Instances keeps objects whose InstanceID is listed (empty = any).
	Instances []string
	// Types keeps objects whose type is listed (empty = any).
	Types []model.SummaryType
}

// NewSummaryFilter builds an F node.
func NewSummaryFilter(in Operator, instances []string, types []model.SummaryType) *SummaryFilter {
	return &SummaryFilter{Input: in, Instances: instances, Types: types}
}

// Keep reports whether a summary object satisfies the filter.
func (f *SummaryFilter) Keep(o *model.SummaryObject) bool {
	if len(f.Instances) > 0 {
		found := false
		for _, name := range f.Instances {
			if strings.EqualFold(name, o.InstanceID) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(f.Types) > 0 {
		found := false
		for _, ty := range f.Types {
			if ty == o.Type {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Open opens the input.
func (f *SummaryFilter) Open(qc *QueryCtx) error { return f.Input.Open(qc) }

// apply filters one row's summary set, returning the input row
// unchanged when it carries no summaries.
func (f *SummaryFilter) apply(row *Row) (*Row, error) {
	set := row.Tuple.Summaries
	if set == nil {
		return row, nil
	}
	kept := make(model.SummarySet, 0, len(set))
	for _, o := range set {
		if f.Keep(o) {
			kept = append(kept, o)
		}
	}
	out := &Row{Tuple: row.Tuple.ShallowWithValues(row.Tuple.Values)}
	out.Tuple.Summaries = kept
	if row.AliasSets != nil {
		out.AliasSets = make(map[string]model.SummarySet, len(row.AliasSets))
		for alias := range row.AliasSets {
			out.AliasSets[alias] = kept
		}
	}
	return out, nil
}

// NextBatch filters each live row's summary set in place in the
// consumed batch's container.
func (f *SummaryFilter) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryFilter", &err)
	b, err = f.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	return b, transformBatch(b, f.apply)
}

// Close closes the input.
func (f *SummaryFilter) Close() error { return f.Input.Close() }

// Schema returns the input schema (F preserves data content).
func (f *SummaryFilter) Schema() *model.Schema { return f.Input.Schema() }
