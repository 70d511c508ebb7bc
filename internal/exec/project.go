package exec

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// Project evaluates projection expressions into a new row. Summary sets
// pass through unchanged: per Theorems 1–2 of the original InsightNotes
// paper, the elimination of projected-out annotations' effects happens
// once, below all merges, in SummaryEffectProject — later projections
// are pure column manipulation (the paper's Figure 3, step 4).
type Project struct {
	Input  Operator
	Exprs  []sql.Expr
	Out    *model.Schema
	Lookup model.AnnotationLookup

	bounds []boundValue
	slab   rowSlab
}

// NewProject builds a projection with a pre-computed output schema.
func NewProject(in Operator, exprs []sql.Expr, out *model.Schema, lookup model.AnnotationLookup) *Project {
	return &Project{Input: in, Exprs: exprs, Out: out, Lookup: lookup}
}

// Open binds the projection expressions and opens the input.
func (p *Project) Open(qc *QueryCtx) (err error) {
	defer recoverOp("Project", &err)
	p.bounds = (&Evaluator{Schema: p.Input.Schema(), Lookup: p.Lookup}).bindValues(p.Exprs)
	p.slab = rowSlab{}
	return p.Input.Open(qc)
}

// apply projects one row into storage carved from the slab.
func (p *Project) apply(row *Row) (*Row, error) {
	out, values := p.slab.carve(len(p.Exprs))
	for i, be := range p.bounds {
		v, err := be(row)
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	*out.Tuple = model.Tuple{OID: row.Tuple.OID, Values: values, Summaries: row.Tuple.Summaries}
	return out, nil
}

// NextBatch projects a whole input batch in place and rewinds its slab.
func (p *Project) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("Project", &err)
	b, err = p.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	p.slab.left = b.Len()
	if err := transformBatch(b, p.apply); err != nil {
		b.Release()
		return nil, err
	}
	b.slab.rewind()
	return b, nil
}

// Close closes the input.
func (p *Project) Close() error { return p.Input.Close() }

// Schema returns the projection's output schema.
func (p *Project) Schema() *model.Schema { return p.Out }

// SummaryEffectProject eliminates the effect of annotations that are
// attached only to columns the query never uses (Section 2.2, Example 1,
// step 1). It sits directly above a table's scan, below every merge, so
// that equivalent plans propagate identical summaries: classifier counts
// decrement, snippets of dropped annotations disappear, and cluster
// groups shrink with representative re-election.
type SummaryEffectProject struct {
	Input Operator
	// KeptColumns is the lower-cased set of this table's columns the
	// query references anywhere (projection, predicates, joins, sort).
	KeptColumns map[string]bool
	// Annotations fetches a tuple's raw annotations.
	Annotations func(tupleOID int64) []*model.Annotation
	Lookup      model.AnnotationLookup

	slab rowSlab
}

// NewSummaryEffectProject builds the node. keptColumns are matched
// case-insensitively.
func NewSummaryEffectProject(in Operator, keptColumns []string,
	annotations func(int64) []*model.Annotation, lookup model.AnnotationLookup) *SummaryEffectProject {
	kept := make(map[string]bool, len(keptColumns))
	for _, c := range keptColumns {
		kept[strings.ToLower(c)] = true
	}
	return &SummaryEffectProject{Input: in, KeptColumns: kept,
		Annotations: annotations, Lookup: lookup}
}

// Open opens the input.
func (p *SummaryEffectProject) Open(qc *QueryCtx) error { return p.Input.Open(qc) }

// apply rewrites one row's summaries, returning the input row unchanged
// when it carries none.
func (p *SummaryEffectProject) apply(row *Row) (*Row, error) {
	set := row.Tuple.Summaries
	if set == nil {
		return row, nil
	}
	surviving := make(map[int64]bool)
	for _, a := range p.Annotations(row.Tuple.OID) {
		if a.SurvivesProjection(p.KeptColumns) {
			surviving[a.ID] = true
		}
	}
	return p.slab.shallow(row, model.ProjectSummaries(set, model.KeepSet(surviving), p.Lookup)), nil
}

// NextBatch rewrites each row's summaries in place in the consumed
// batch's container.
func (p *SummaryEffectProject) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryEffectProject", &err)
	b, err = p.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	p.slab.left = b.Len()
	return b, transformBatch(b, p.apply)
}

// Close closes the input.
func (p *SummaryEffectProject) Close() error { return p.Input.Close() }

// Schema returns the input schema (data content is untouched).
func (p *SummaryEffectProject) Schema() *model.Schema { return p.Input.Schema() }
