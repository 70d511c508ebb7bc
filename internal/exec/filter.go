package exec

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// PredicateFilter implements both the standard selection σ and the
// summary-based selection S of Section 3.2: a tuple passes iff the
// predicate holds; qualifying tuples keep all their summary objects
// unchanged. S is σ whose predicate reads summaries — the plan prints
// it as S, and the operator is the same.
type PredicateFilter struct {
	Input  Operator
	Pred   sql.Expr
	Lookup model.AnnotationLookup

	bound []boundPred  // the predicate's top-level AND operands, in order
	conj  [4]boundPred // bound's storage up to four of them
}

// NewFilter builds a σ (or S) node.
func NewFilter(in Operator, pred sql.Expr, lookup model.AnnotationLookup) *PredicateFilter {
	return &PredicateFilter{Input: in, Pred: pred, Lookup: lookup}
}

// Open binds the predicate's conjuncts and opens the input.
func (f *PredicateFilter) Open(qc *QueryCtx) (err error) {
	defer recoverOp("Filter", &err)
	f.bound = (&Evaluator{Schema: f.Input.Schema(), Lookup: f.Lookup}).conjuncts(f.Pred, f.conj[:0])
	return f.Input.Open(qc)
}

// NextBatch filters input batches one conjunct at a time, each pass
// compacting the batch's surviving row pointers to its front in place
// (setLen clears the tail, so the pool keeps no dropped row): a row one
// conjunct drops meets no later one, as under AND's short circuit, and
// a conjunct's closure runs over the whole batch at once. Batches the
// predicate empties are skipped.
func (f *PredicateFilter) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("Filter", &err)
	for {
		b, err := f.Input.NextBatch(qc)
		if err != nil || b == nil {
			return nil, err
		}
		for _, pred := range f.bound {
			kept := 0
			for _, row := range b.rows {
				ok, err := pred(row)
				if err != nil {
					b.Release()
					return nil, err
				}
				if ok {
					b.rows[kept] = row
					kept++
				}
			}
			b.setLen(kept)
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

	slab rowSlab
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
	return f.slab.shallow(row, kept), nil
}

// NextBatch filters each row's summary set in place in the consumed
// batch's container.
func (f *SummaryFilter) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryFilter", &err)
	b, err = f.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	f.slab.left = b.Len()
	return b, transformBatch(b, f.apply)
}

// Close closes the input.
func (f *SummaryFilter) Close() error { return f.Input.Close() }

// Schema returns the input schema (F preserves data content).
func (f *SummaryFilter) Schema() *model.Schema { return f.Input.Schema() }
