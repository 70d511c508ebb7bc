package exec

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// projectSlabRows caps how many output rows Project carves from one
// slab refill (three allocations per slab instead of three per row; see
// the Operator ownership rule — carved storage is handed to the
// consumer and never reused).
const projectSlabRows = 256

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

	// Output slab (amortized allocation; storage still escapes to the
	// consumer, only the allocation is batched). batchLeft counts the
	// rows of the batch in flight that still need storage.
	slabRows   []Row
	slabTuples []model.Tuple
	slabVals   []model.Value
	slabPos    int
	batchLeft  int
}

// NewProject builds a projection with a pre-computed output schema.
func NewProject(in Operator, exprs []sql.Expr, out *model.Schema, lookup model.AnnotationLookup) *Project {
	return &Project{Input: in, Exprs: exprs, Out: out, Lookup: lookup}
}

// Open binds the projection expressions and opens the input.
func (p *Project) Open(qc *QueryCtx) (err error) {
	defer recoverOp("Project", &err)
	p.bounds = (&Evaluator{Schema: p.Input.Schema(), Lookup: p.Lookup}).bindValues(p.Exprs)
	p.slabRows, p.slabTuples, p.slabVals, p.slabPos = nil, nil, nil, 0
	return p.Input.Open(qc)
}

// carve returns storage for one output row from the operator's slab. A
// refill covers the rest of the batch in flight, or double the previous
// slab up to projectSlabRows when that is more — so a five-row result
// allocates five rows, a large batch allocates once, and a capacity-1
// stream still amortizes to a few allocations per 256 rows. Carved
// storage belongs to the consumer and is never written again by this
// operator.
func (p *Project) carve() (*Row, *model.Tuple, []model.Value) {
	k := len(p.Exprs)
	if p.slabPos >= len(p.slabRows) {
		n := max(p.batchLeft, min(2*len(p.slabRows), projectSlabRows))
		p.slabRows = make([]Row, n)
		p.slabTuples = make([]model.Tuple, n)
		p.slabVals = make([]model.Value, n*k)
		p.slabPos = 0
	}
	i := p.slabPos
	p.slabPos++
	p.batchLeft--
	return &p.slabRows[i], &p.slabTuples[i], p.slabVals[i*k : (i+1)*k : (i+1)*k]
}

// apply projects one row into storage carved from the slab.
func (p *Project) apply(row *Row) (*Row, error) {
	out, tup, values := p.carve()
	for i, be := range p.bounds {
		v, err := be(row)
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	*tup = model.Tuple{OID: row.Tuple.OID, Values: values, Summaries: row.Tuple.Summaries}
	*out = Row{Tuple: tup, AliasSets: row.AliasSets}
	return out, nil
}

// NextBatch projects a whole input batch, refilling the same container
// densely (consuming any selection vector).
func (p *Project) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("Project", &err)
	b, err = p.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	p.batchLeft = b.Len()
	if err := transformBatch(b, p.apply); err != nil {
		b.Release()
		return nil, err
	}
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
	projected := model.ProjectSummaries(set, model.KeepSet(surviving), p.Lookup)
	out := &Row{Tuple: row.Tuple.ShallowWithValues(row.Tuple.Values)}
	out.Tuple.Summaries = projected
	if row.AliasSets != nil {
		out.AliasSets = make(map[string]model.SummarySet, len(row.AliasSets))
		for alias := range row.AliasSets {
			out.AliasSets[alias] = projected
		}
	}
	return out, nil
}

// NextBatch rewrites each live row's summaries in place in the consumed
// batch's container.
func (p *SummaryEffectProject) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("SummaryEffectProject", &err)
	b, err = p.Input.NextBatch(qc)
	if err != nil || b == nil {
		return nil, err
	}
	return b, transformBatch(b, p.apply)
}

// Close closes the input.
func (p *SummaryEffectProject) Close() error { return p.Input.Close() }

// Schema returns the input schema (data content is untouched).
func (p *SummaryEffectProject) Schema() *model.Schema { return p.Input.Schema() }
