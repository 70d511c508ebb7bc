package exec

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/sql"
)

// AggSpec describes one aggregate computed by GroupBy.
type AggSpec struct {
	Func string   // count, sum, avg, min, max (lower-case)
	Arg  sql.Expr // nil for COUNT(*)
	Star bool
	Name string // output column name
}

// GroupBy implements hash aggregation with summary-aware semantics: the
// summary sets of a group's members are merged (without double counting),
// so an aggregated row still carries meaningful annotation summaries —
// the behavior behind the case study's Q2, which counts behavior-related
// annotations per bird family after grouping.
//
// Its input is a list of partitions: each is drained into a private
// accumulator (in parallel when there are several, see runPartitions)
// and the partials are merged in partition order, which reproduces the
// serial plan's group order and per-group summary merge order exactly.
// One partition is the serial plan.
type GroupBy struct {
	Inputs []Operator
	Keys   []sql.Expr
	Aggs   []AggSpec
	Lookup model.AnnotationLookup

	out    *model.Schema
	groups []*groupState
	pos    int
	res    reservation // one charge per retained group
}

type groupState struct {
	keyVals []model.Value
	oid     int64                 // the first row's OID, the output's
	merged  *model.SetAccumulator // the members' summary sets, finished at output
	count   int64
	sums    []float64
	isInt   []bool
	counts  []int64
	mins    []model.Value
	maxs    []model.Value
	charge  int64 // bytes charged against the budget for this group
}

// GroupBySchema computes the aggregation output schema: the group keys
// (named after their expressions) followed by one column per aggregate.
// It is shared by the logical planner and the physical operator so both
// agree on names.
func GroupBySchema(inSchema *model.Schema, keys []sql.Expr, aggs []AggSpec) *model.Schema {
	out := &model.Schema{}
	for i, k := range keys {
		name, qual := fmt.Sprintf("key%d", i), ""
		if cr, ok := k.(*sql.ColumnRef); ok {
			name, qual = cr.Name, cr.Qualifier
			if idx, err := inSchema.ColIndex(cr.Qualifier, cr.Name); err == nil {
				out.Columns = append(out.Columns, inSchema.Col(idx))
				out.Qualifiers = append(out.Qualifiers, inSchema.Qualifiers[idx])
				continue
			}
		}
		out.Columns = append(out.Columns, model.Column{Name: name, Kind: model.KindText})
		out.Qualifiers = append(out.Qualifiers, qual)
	}
	for _, a := range aggs {
		kind := model.KindInt
		if a.Func == "avg" {
			kind = model.KindFloat
		}
		out.Columns = append(out.Columns, model.Column{Name: a.Name, Kind: kind})
		out.Qualifiers = append(out.Qualifiers, "")
	}
	return out
}

// NewGroupBy builds the operator over the partitions of its input.
func NewGroupBy(inputs []Operator, keys []sql.Expr, aggs []AggSpec, lookup model.AnnotationLookup) *GroupBy {
	return &GroupBy{Inputs: inputs, Keys: keys, Aggs: aggs, Lookup: lookup,
		out: GroupBySchema(inputs[0].Schema(), keys, aggs)}
}

// groupAcc is one partition's aggregation accumulator: a hash of group
// states in first-seen order, charging the query budget for every
// retained group. Each accumulator is used by one goroutine; partials
// are combined with mergeFrom on the query goroutine afterwards.
type groupAcc struct {
	keys   []boundValue
	aggs   []AggSpec
	args   []boundValue // per aggregate; nil for COUNT(*)
	lookup model.AnnotationLookup
	res    reservation

	byKey map[string]*groupState
	order []string

	vals []model.Value // the row's key values, reused
	key  []byte        // their key, reused
}

func newGroupAcc(qc *QueryCtx, schema *model.Schema, keys []sql.Expr, aggs []AggSpec,
	lookup model.AnnotationLookup) *groupAcc {
	ev := &Evaluator{Schema: schema, Lookup: lookup}
	a := &groupAcc{
		keys: ev.bindValues(keys), aggs: aggs, args: make([]boundValue, len(aggs)),
		lookup: lookup, byKey: map[string]*groupState{},
	}
	a.res.bind(qc, "GroupBy")
	for i, agg := range aggs {
		if !agg.Star && agg.Arg != nil {
			a.args[i] = ev.BindValue(agg.Arg)
		}
	}
	return a
}

// add folds one input row into the accumulator. GroupBy is a pipeline
// breaker: every retained group is charged against the query budget,
// and the operator fails fast with ErrBudgetExceeded when the buffer
// limit is hit (high-cardinality groupings are the risk; per-group
// aggregate state is constant-size).
func (a *groupAcc) add(row *Row) error {
	var err error
	if a.vals, err = appendValues(a.vals[:0], a.keys, row); err != nil {
		return err
	}
	a.key = appendRowKey(a.key[:0], a.vals)
	gs, ok := a.byKey[string(a.key)]
	if !ok {
		rb := approxRowBytes(row) + int64(len(a.aggs))*64
		if cerr := a.res.charge(1, rb); cerr != nil {
			return cerr
		}
		key := string(a.key)
		gs = &groupState{
			keyVals: slices.Clone(a.vals),
			oid:     row.Tuple.OID,
			merged:  model.NewSetAccumulator(a.lookup),
			sums:    make([]float64, len(a.aggs)),
			isInt:   make([]bool, len(a.aggs)),
			counts:  make([]int64, len(a.aggs)),
			mins:    make([]model.Value, len(a.aggs)),
			maxs:    make([]model.Value, len(a.aggs)),
			charge:  rb,
		}
		for i := range gs.isInt {
			gs.isInt[i] = true
		}
		a.byKey[key] = gs
		a.order = append(a.order, key)
	}
	// Fold the member's summaries into the group's (Q2 semantics: an
	// output tuple's annotations come from all its base tuples, without
	// double counting).
	gs.merged.Add(row.Tuple.Summaries)
	gs.count++
	for ai, arg := range a.args {
		if arg == nil {
			continue
		}
		v, err := arg(row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		gs.counts[ai]++
		if v.IsNumeric() {
			gs.sums[ai] += v.AsFloat()
			if v.Kind == model.KindFloat {
				gs.isInt[ai] = false
			}
		}
		if gs.mins[ai].IsNull() {
			gs.mins[ai], gs.maxs[ai] = v, v
			continue
		}
		if c, err := v.Compare(gs.mins[ai]); err == nil && c < 0 {
			gs.mins[ai] = v
		}
		if c, err := v.Compare(gs.maxs[ai]); err == nil && c > 0 {
			gs.maxs[ai] = v
		}
	}
	return nil
}

// mergeFrom folds another accumulator's partial states into a. Because
// callers merge partials in partition order — and partitions are
// consecutive page ranges — the resulting first-seen group order and
// per-group summary merge order equal the serial plan's. Groups present
// on both sides release the duplicate's budget charge.
func (a *groupAcc) mergeFrom(o *groupAcc) {
	for _, key := range o.order {
		os := o.byKey[key]
		gs, ok := a.byKey[key]
		if !ok {
			a.byKey[key] = os
			a.order = append(a.order, key)
			continue
		}
		mergeGroupState(gs, os)
		o.res.release(1, os.charge)
	}
	a.res.absorb(&o.res)
}

// mergeGroupState combines two partial states of the same group; dst is
// the earlier partition's, so its first row wins and src's members follow
// dst's in the summary merge, as in the serial fold. Accumulators merge, not
// finished sets: electing a cluster representative needs the arriving groups.
func mergeGroupState(dst, src *groupState) {
	dst.merged.Merge(src.merged)
	dst.count += src.count
	for i := range dst.sums {
		dst.sums[i] += src.sums[i]
		dst.isInt[i] = dst.isInt[i] && src.isInt[i]
		dst.counts[i] += src.counts[i]
		if dst.mins[i].IsNull() {
			dst.mins[i] = src.mins[i]
		} else if !src.mins[i].IsNull() {
			if c, err := src.mins[i].Compare(dst.mins[i]); err == nil && c < 0 {
				dst.mins[i] = src.mins[i]
			}
		}
		if dst.maxs[i].IsNull() {
			dst.maxs[i] = src.maxs[i]
		} else if !src.maxs[i].IsNull() {
			if c, err := src.maxs[i].Compare(dst.maxs[i]); err == nil && c > 0 {
				dst.maxs[i] = src.maxs[i]
			}
		}
	}
}

// states returns the group states in first-seen order.
func (a *groupAcc) states() []*groupState {
	out := make([]*groupState, len(a.order))
	for i, k := range a.order {
		out[i] = a.byKey[k]
	}
	return out
}

// Open builds the group states: it drains every partition into a
// private groupAcc and merges the partials in partition order. The
// merge releases duplicate group charges, so after Open the budget
// holds exactly one charge per distinct group. The operator absorbs
// every accumulator's charges on every way out, so Close releases
// whatever was committed before an error.
func (g *GroupBy) Open(qc *QueryCtx) (err error) {
	defer recoverOp("GroupBy", &err)
	g.res.bind(qc, "GroupBy")
	accs := make([]*groupAcc, len(g.Inputs))
	for i, in := range g.Inputs {
		accs[i] = newGroupAcc(qc, in.Schema(), g.Keys, g.Aggs, g.Lookup)
	}
	defer func() {
		for _, acc := range accs {
			g.res.absorb(&acc.res)
		}
	}()
	err = runPartitions(qc, g.Inputs, func(i int) func(b *Batch, j int) error {
		return func(b *Batch, j int) error { return accs[i].add(b.rows[j]) }
	})
	if err != nil {
		return err
	}
	merged := accs[0]
	for _, acc := range accs[1:] {
		merged.mergeFrom(acc)
	}
	g.groups = merged.states()
	g.pos = 0
	return nil
}

// NextBatch emits the next groups.
func (g *GroupBy) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("GroupBy", &err)
	size := qc.Capacity()
	if err := qc.tick(size); err != nil {
		return nil, err
	}
	b = GetBatch(size)
	for ; b.Len() < size && g.pos < len(g.groups); g.pos++ {
		row, err := g.output(g.groups[g.pos])
		if err != nil {
			b.Release()
			return nil, err
		}
		b.Append(row)
	}
	return nonEmpty(b), nil
}

// output renders one group's keys and finalized aggregates as a row.
func (g *GroupBy) output(gs *groupState) (*Row, error) {
	values := make([]model.Value, 0, len(gs.keyVals)+len(g.Aggs))
	values = append(values, gs.keyVals...)
	for ai, a := range g.Aggs {
		switch a.Func {
		case "count":
			if a.Star {
				values = append(values, model.NewInt(gs.count))
			} else {
				values = append(values, model.NewInt(gs.counts[ai]))
			}
		case "sum":
			if gs.isInt[ai] {
				values = append(values, model.NewInt(int64(gs.sums[ai])))
			} else {
				values = append(values, model.NewFloat(gs.sums[ai]))
			}
		case "avg":
			if gs.counts[ai] == 0 {
				values = append(values, model.Null())
			} else {
				values = append(values, model.NewFloat(gs.sums[ai]/float64(gs.counts[ai])))
			}
		case "min":
			values = append(values, gs.mins[ai])
		case "max":
			values = append(values, gs.maxs[ai])
		default:
			return nil, fmt.Errorf("exec: unknown aggregate %q", a.Func)
		}
	}
	return &Row{Tuple: &model.Tuple{OID: gs.oid, Values: values,
		Summaries: gs.merged.Result()}}, nil
}

// Close releases the group states and their budget charge (the input
// was closed at Open).
func (g *GroupBy) Close() error {
	g.groups = nil
	g.res.releaseAll()
	return nil
}

// Schema returns the group-keys + aggregates schema.
func (g *GroupBy) Schema() *model.Schema { return g.out }
