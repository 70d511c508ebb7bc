package exec

import (
	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/sql"
)

// joinProbe is the probe phase the three join implementations share:
// it walks the outer (left) input batch by batch, pairs each outer row
// with its inner candidates in order, applies the pre-merge predicate
// to the pair, builds an output row for each accepted pair and fills
// output batches up to the query capacity. Outer order is preserved
// (the property rules 5–6 rely on), and the outer input is pulled
// lazily — never past what the current output batch needs — so a LIMIT
// above the join stops the scan below it at the outer row that filled
// the limit.
type joinProbe struct {
	left Operator
	// candidates lists the inner rows to pair with one outer row: the
	// hash bucket, the materialized inner, or an index probe's hits.
	candidates func(qc *QueryCtx, outer *Row) ([]*Row, error)
	// pred is the ON/residual predicate over the pair row, bound by
	// bindPred; nil accepts every pair.
	pred      boundPred
	propagate bool
	lookup    model.AnnotationLookup

	in      *Batch // outer batch being probed
	inPos   int
	pair    Row    // the pair pred runs on, reused: the outer tuple and Inner
	pending []*Row // the outer row's candidates not yet paired
	done    bool   // outer input exhausted
	home    batchHome
}

// bindPred binds a join's ON/residual predicate against the join's
// concatenated schema, split where the inner input's columns start, so
// that it runs on the probe's pair row.
func bindPred(e sql.Expr, schema *model.Schema, split int, lookup model.AnnotationLookup) boundPred {
	if e == nil {
		return nil
	}
	return (&Evaluator{Schema: schema, Lookup: lookup, Split: split}).BindPred(e)
}

// output writes the joined row of an accepted pair into out's slab:
// the concatenated values under the outer row's OID, carrying the two
// sides' merged summary sets (Section 2.2's merge procedure, without
// double counting) when the join propagates and no set otherwise.
func (p *joinProbe) output(out *Batch) *Row {
	outer, inner := p.pair.Tuple, p.pair.Inner.Tuple
	row, values := out.slab.carve(len(outer.Values) + len(inner.Values))
	copy(values[copy(values, outer.Values):], inner.Values)
	*row.Tuple = model.Tuple{OID: outer.OID, Values: values}
	if p.propagate {
		row.Tuple.Summaries = model.MergeSets(outer.Summaries, inner.Summaries, p.lookup)
	}
	return row
}

// nextBatch returns the next batch of joined rows. The inner loop ticks
// the query context per candidate pair: a large cross product must
// remain cancellable between output rows, not only between batches.
func (p *joinProbe) nextBatch(qc *QueryCtx) (*Batch, error) {
	size := qc.Capacity()
	out := p.home.get(size)
	fail := func(err error) (*Batch, error) {
		out.Release()
		return nil, err
	}
	for {
		for len(p.pending) > 0 {
			if err := qc.tick(1); err != nil {
				return fail(err)
			}
			p.pair.Inner = p.pending[0]
			p.pending = p.pending[1:]
			if p.pred != nil {
				ok, err := p.pred(&p.pair)
				if err != nil {
					return fail(err)
				}
				if !ok {
					continue
				}
			}
			out.Append(p.output(out))
			if out.Len() == size {
				return out, nil
			}
		}
		if p.done {
			return nonEmpty(out), nil
		}
		if p.in == nil || p.inPos == p.in.Len() {
			p.in.Release()
			p.in = nil
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
		outer := p.in.Row(p.inPos)
		p.inPos++
		p.pair.Tuple = outer.Tuple
		var err error
		if p.pending, err = p.candidates(qc, outer); err != nil {
			return fail(err)
		}
	}
}

// release returns the in-flight outer batch, drops the probe's references
// and hands the free output batches to the pool: every join's Close.
func (p *joinProbe) release() {
	p.in.Release()
	p.in, p.pair, p.pending, p.candidates = nil, Row{}, nil, nil
	p.home.close()
}

// NLJoin is a block nested-loop join: the inner (right) input is
// materialized once, then streamed per outer row. It preserves the outer
// input's order — the property rules 5–6 rely on. It implements both the
// data join ⋈ and the summary join J, which is ⋈ whose predicate reads
// summaries; both merge the joined tuples' summary objects.
type NLJoin struct {
	Left, Right Operator
	On          sql.Expr
	Propagate   bool
	Lookup      model.AnnotationLookup

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
		left:       j.Left,
		candidates: func(*QueryCtx, *Row) ([]*Row, error) { return inner, nil },
		pred:       bindPred(j.On, j.schema, j.Left.Schema().Len(), j.Lookup),
		propagate:  j.Propagate, lookup: j.Lookup,
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
	// Residual is an optional extra predicate over the joined pair.
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

// Open opens the outer input. Each outer row's candidates are the
// equality hits of the inner table's column index (none when the column
// has no index), fetched in index order; a probe ticks the context of
// the NextBatch call that needs it, so a join whose outer rows find few
// partners still polls cancellation once per outer batch.
func (j *IndexJoin) Open(qc *QueryCtx) (err error) {
	defer recoverOp("IndexJoin", &err)
	outerKey := (&Evaluator{Schema: j.Left.Schema(), Lookup: j.Lookup}).BindValue(j.OuterKey)
	idx := j.InnerTable.DataIndex(j.InnerCol)
	var hits []*Row // reused: the probe has consumed the last call's slice
	var slab rowSlab
	j.probe = joinProbe{
		left: j.Left,
		candidates: func(qc *QueryCtx, outer *Row) ([]*Row, error) {
			if err := qc.tick(1); err != nil {
				return nil, err
			}
			key, err := outerKey(outer)
			if err != nil || idx == nil || key.IsNull() {
				return nil, err // NULL equals nothing, though the index holds NULLs
			}
			// The probe key lives on the stack (SearchEq keeps no key).
			var kb [32]byte
			hits = hits[:0]
			for _, enc := range idx.SearchEq(string(key.AppendSortKey(kb[:0]))) {
				row, ok := slab.fetch(j.InnerTable, heap.DecodeRID(enc))
				if !ok {
					continue
				}
				if j.FetchSummaries {
					row.Tuple.Summaries = j.InnerTable.GetSummaries(row.Tuple.OID)
				}
				hits = append(hits, row)
			}
			return hits, nil
		},
		pred:      bindPred(j.Residual, j.schema, j.Left.Schema().Len(), j.Lookup),
		propagate: j.Propagate, lookup: j.Lookup,
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
