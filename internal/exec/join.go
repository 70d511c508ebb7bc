package exec

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/sql"
)

// joinRow builds the combined row two join inputs present to the join
// predicate: concatenated data values, with each side's aliases mapped
// to its own (pre-merge) summary set so that r.$ and s.$ resolve
// per-side, as the J operator's semantics require.
func joinRow(left, right *Row, leftAliases, rightAliases []string) *Row {
	values := make([]model.Value, 0, len(left.Tuple.Values)+len(right.Tuple.Values))
	values = append(append(values, left.Tuple.Values...), right.Tuple.Values...)
	combined := &Row{
		Tuple:     &model.Tuple{OID: left.Tuple.OID, Values: values},
		AliasSets: make(map[string]model.SummarySet, len(leftAliases)+len(rightAliases)),
	}
	for _, a := range leftAliases {
		combined.AliasSets[a] = left.SetFor(a)
	}
	for _, a := range rightAliases {
		combined.AliasSets[a] = right.SetFor(a)
	}
	return combined
}

// mergeJoinOutput merges the two sides' summary sets into the combined
// row (Section 2.2's merge procedure, without double counting) and
// re-points every alias at the merged set.
func mergeJoinOutput(combined *Row, left, right *Row, lookup model.AnnotationLookup) {
	merged := model.MergeSets(left.Tuple.Summaries, right.Tuple.Summaries, lookup)
	combined.Tuple.Summaries = merged
	for a := range combined.AliasSets {
		combined.AliasSets[a] = merged
	}
}

func schemaAliases(s *model.Schema) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range s.Qualifiers {
		q = strings.ToLower(q)
		if q != "" && !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// joinProbe is the probe phase the three join implementations share:
// it walks the outer (left) input batch by batch, pairs each outer row
// with its inner candidates in order, applies the pre-merge predicate,
// merges the survivors' summary sets and fills output batches up to the
// query capacity. Outer order is preserved (the property rules 5–6 rely
// on), and the outer input is pulled lazily — never past what the
// current output batch needs — so a LIMIT above the join stops the
// scan below it at the outer row that filled the limit.
type joinProbe struct {
	left                      Operator
	leftAliases, rightAliases []string
	// candidates lists the inner rows to pair with one outer row: the
	// hash bucket, the materialized inner, or an index probe's hits.
	candidates func(qc *QueryCtx, outer *Row) ([]*Row, error)
	// pred is the ON/residual predicate over the combined row, bound
	// against the concatenated schema; nil accepts every pair.
	pred      boundPred
	propagate bool
	lookup    model.AnnotationLookup

	in      *Batch // outer batch being probed
	inPos   int
	cur     *Row   // outer row being paired
	pending []*Row // cur's candidates not yet paired
	done    bool   // outer input exhausted
}

// nextBatch returns the next batch of joined rows. The inner loop ticks
// the query context per candidate pair: a large cross product must
// remain cancellable between output rows, not only between batches.
func (p *joinProbe) nextBatch(qc *QueryCtx) (*Batch, error) {
	size := qc.Capacity()
	out := GetBatch(size)
	fail := func(err error) (*Batch, error) {
		out.Release()
		return nil, err
	}
	for {
		for len(p.pending) > 0 {
			if err := qc.tick(1); err != nil {
				return fail(err)
			}
			right := p.pending[0]
			p.pending = p.pending[1:]
			combined := joinRow(p.cur, right, p.leftAliases, p.rightAliases)
			if p.pred != nil {
				ok, err := p.pred(combined)
				if err != nil {
					return fail(err)
				}
				if !ok {
					continue
				}
			}
			if p.propagate {
				mergeJoinOutput(combined, p.cur, right, p.lookup)
			}
			out.Append(combined)
			if out.Len() == size {
				return out, nil
			}
		}
		if p.done {
			return nonEmpty(out), nil
		}
		if p.in == nil || p.inPos == p.in.Len() {
			p.release()
			in, err := p.left.NextBatch(qc)
			if err != nil {
				return fail(err)
			}
			if in == nil {
				p.done = true
				continue
			}
			p.in, p.inPos = in, 0
		}
		p.cur = p.in.Row(p.inPos)
		p.inPos++
		var err error
		if p.pending, err = p.candidates(qc, p.cur); err != nil {
			return fail(err)
		}
	}
}

// release returns the in-flight outer batch to the pool (its rows live
// on in the joined output).
func (p *joinProbe) release() {
	p.in.Release()
	p.in, p.cur, p.pending = nil, nil, nil
}

// NLJoin is a block nested-loop join: the inner (right) input is
// materialized once, then streamed per outer row. It preserves the outer
// input's order — the property rules 5–6 rely on. It implements both the
// data join ⋈ and, with a summary-based predicate, the summary join J;
// both merge the joined tuples' summary objects.
type NLJoin struct {
	Left, Right Operator
	On          sql.Expr
	// Summary marks the logical J operator (for EXPLAIN).
	Summary   bool
	Propagate bool
	Lookup    model.AnnotationLookup

	schema *model.Schema
	probe  joinProbe
}

// NewNLJoin builds a block nested-loop join.
func NewNLJoin(left, right Operator, on sql.Expr, propagate bool, lookup model.AnnotationLookup) *NLJoin {
	return &NLJoin{Left: left, Right: right, On: on, Propagate: propagate, Lookup: lookup,
		schema: left.Schema().Concat(right.Schema())}
}

// Open materializes the inner input.
func (j *NLJoin) Open(qc *QueryCtx) (err error) {
	defer recoverOp("NLJoin", &err)
	inner, err := Collect(qc, j.Right)
	if err != nil {
		return err
	}
	j.probe = joinProbe{
		left:        j.Left,
		leftAliases: schemaAliases(j.Left.Schema()), rightAliases: schemaAliases(j.Right.Schema()),
		candidates: func(*QueryCtx, *Row) ([]*Row, error) { return inner, nil },
		propagate:  j.Propagate, lookup: j.Lookup,
	}
	if j.On != nil {
		j.probe.pred = (&Evaluator{Schema: j.schema, Lookup: j.Lookup}).BindPred(j.On)
	}
	return j.Left.Open(qc)
}

// NextBatch returns the next joined rows.
func (j *NLJoin) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("NLJoin", &err)
	return j.probe.nextBatch(qc)
}

// Close drops the materialized inner and closes the outer input.
func (j *NLJoin) Close() error {
	j.probe.release()
	j.probe = joinProbe{}
	return j.Left.Close()
}

// Schema returns the concatenated schema.
func (j *NLJoin) Schema() *model.Schema { return j.schema }

// IndexJoin joins by probing a data index on the inner table's join
// column for each outer row — the "index-based join" implementation
// choice of Section 5.2. It preserves outer order.
type IndexJoin struct {
	Left Operator
	// Inner side: a table with a data index on InnerColumn.
	InnerTable *catalog.Table
	InnerAlias string
	InnerCol   string
	// OuterKey is evaluated against the outer row to form the probe key.
	OuterKey sql.Expr
	// Residual is an optional extra predicate over the combined row.
	Residual sql.Expr
	// Propagate merges the sides' summaries into the output.
	Propagate bool
	// FetchSummaries attaches the inner table's summary sets even when
	// Propagate is off (needed when Residual reads $).
	FetchSummaries bool
	Lookup         model.AnnotationLookup

	schema *model.Schema
	probe  joinProbe
}

// NewIndexJoin builds an index join.
func NewIndexJoin(left Operator, inner *catalog.Table, innerAlias, innerCol string,
	outerKey sql.Expr, residual sql.Expr, propagate bool, lookup model.AnnotationLookup) *IndexJoin {
	if innerAlias == "" {
		innerAlias = inner.Name
	}
	return &IndexJoin{
		Left: left, InnerTable: inner, InnerAlias: innerAlias, InnerCol: innerCol,
		OuterKey: outerKey, Residual: residual, Propagate: propagate,
		FetchSummaries: propagate, Lookup: lookup,
		schema: left.Schema().Concat(inner.Schema.Rename(innerAlias)),
	}
}

// Open opens the outer input. Each outer row's candidates come from a
// DataIndexScan probe of the inner table's column index, built per row
// and run under the context of the NextBatch call that needs it.
func (j *IndexJoin) Open(qc *QueryCtx) (err error) {
	defer recoverOp("IndexJoin", &err)
	outerKey := (&Evaluator{Schema: j.Left.Schema(), Lookup: j.Lookup}).BindValue(j.OuterKey)
	j.probe = joinProbe{
		left:        j.Left,
		leftAliases: schemaAliases(j.Left.Schema()), rightAliases: []string{strings.ToLower(j.InnerAlias)},
		candidates: func(qc *QueryCtx, outer *Row) ([]*Row, error) {
			key, err := outerKey(outer)
			if err != nil {
				return nil, err
			}
			return Collect(qc, NewDataIndexScan(j.InnerTable, j.InnerAlias, j.InnerCol, key, j.FetchSummaries))
		},
		propagate: j.Propagate, lookup: j.Lookup,
	}
	if j.Residual != nil {
		j.probe.pred = (&Evaluator{Schema: j.schema, Lookup: j.Lookup}).BindPred(j.Residual)
	}
	return j.Left.Open(qc)
}

// NextBatch returns the next joined rows.
func (j *IndexJoin) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("IndexJoin", &err)
	return j.probe.nextBatch(qc)
}

// Close closes the outer input.
func (j *IndexJoin) Close() error {
	j.probe.release()
	return j.Left.Close()
}

// Schema returns the concatenated schema.
func (j *IndexJoin) Schema() *model.Schema { return j.schema }
