package exec

import (
	"strings"

	"repro/internal/model"
	"repro/internal/sql"
)

// HashJoin is an equi-join implementation beyond the paper's two choices
// (block nested-loop and index-based) — the "more implementation choices
// for the summary-based operators" the paper lists as future work. The
// right input is hashed on its key once; each left row probes the table.
// Like the other joins it preserves the outer (left) input's order and
// merges the joined tuples' summary sets without double counting.
type HashJoin struct {
	Left Operator
	// Builds are the partitions of the build (right) side: each is
	// hashed into its own run (in parallel when there are several) and
	// the runs fold into the table in partition order, so the per-key
	// row order (and therefore the join output) matches a serial build.
	// One partition is the serial build.
	Builds []Operator
	// LeftKey/RightKey are the equi-join key expressions, evaluated
	// against their own side.
	LeftKey, RightKey sql.Expr
	// Residual is an optional extra predicate over the joined pair,
	// evaluated pre-merge.
	Residual  sql.Expr
	Propagate bool
	Lookup    model.AnnotationLookup

	schema *model.Schema
	probe  joinProbe
	res    reservation // the hash table's budget charge
}

// NewHashJoin builds a hash join over the partitions of its build side.
func NewHashJoin(left Operator, builds []Operator, leftKey, rightKey sql.Expr,
	residual sql.Expr, propagate bool, lookup model.AnnotationLookup) *HashJoin {
	return &HashJoin{
		Left: left, Builds: builds, LeftKey: leftKey, RightKey: rightKey,
		Residual: residual, Propagate: propagate, Lookup: lookup,
		schema: left.Schema().Concat(builds[0].Schema()),
	}
}

// buildRun is one partition's share of the build side: its non-NULL-key
// rows with their hash keys, in input order, and what they charged.
type buildRun struct {
	rows []*Row // copies (rowSlab.keep)
	keys []string
	res  reservation
	slab rowSlab
}

// add hashes b's i-th row into the run. The build side is what a hash
// join buffers, so every retained row is charged against the query
// budget; unlike Sort there is no graceful degradation — a build side
// over budget fails fast with ErrBudgetExceeded, and the optimizer's
// sort/NL-based plans are the fallback.
func (r *buildRun) add(key boundValue, b *Batch, i int) error {
	row := b.rows[i]
	k, err := key(row)
	if err != nil {
		return err
	}
	if k.IsNull() {
		return nil // NULL keys never join
	}
	if cerr := r.res.charge(1, approxRowBytes(row)); cerr != nil {
		return cerr
	}
	r.slab.left = b.Len() - i
	row, _ = r.slab.keep(b, i, 0)
	r.rows = append(r.rows, row)
	r.keys = append(r.keys, k.SortKey())
	return nil
}

// Open drains and hashes the build (right) side, one run per
// partition, and folds the runs into the hash table in partition order.
// The join absorbs every run's charges on every way out, so Close
// releases them all even after a failed open.
func (j *HashJoin) Open(qc *QueryCtx) (err error) {
	defer recoverOp("HashJoin", &err)
	rightKey := (&Evaluator{Schema: j.Builds[0].Schema(), Lookup: j.Lookup}).BindValue(j.RightKey)
	j.res.bind(qc, "HashJoin")
	runs := make([]buildRun, len(j.Builds))
	for i := range runs {
		runs[i].res.bind(qc, "HashJoin")
	}
	defer func() {
		for i := range runs {
			j.res.absorb(&runs[i].res)
		}
	}()
	err = runPartitions(qc, j.Builds, func(i int) func(b *Batch, k int) error {
		return func(b *Batch, k int) error { return runs[i].add(rightKey, b, k) }
	})
	if err != nil {
		return err
	}
	table := make(map[string][]*Row)
	for _, r := range runs {
		for k, row := range r.rows {
			table[r.keys[k]] = append(table[r.keys[k]], row)
		}
	}

	leftKey := (&Evaluator{Schema: j.Left.Schema(), Lookup: j.Lookup}).BindValue(j.LeftKey)
	var probeKey []byte // the outer row's key, reused: the lookup copies nothing
	j.probe = joinProbe{
		left: j.Left,
		candidates: func(_ *QueryCtx, outer *Row) ([]*Row, error) {
			key, err := leftKey(outer)
			if err != nil || key.IsNull() {
				return nil, err
			}
			probeKey = key.AppendSortKey(probeKey[:0])
			return table[string(probeKey)], nil
		},
		pred:      bindPred(j.Residual, j.schema, j.Left.Schema().Len(), j.Lookup),
		propagate: j.Propagate, lookup: j.Lookup,
	}
	return j.Left.Open(qc)
}

// NextBatch returns the next joined rows.
func (j *HashJoin) NextBatch(qc *QueryCtx) (b *Batch, err error) {
	defer recoverOp("HashJoin", &err)
	return j.probe.nextBatch(qc)
}

// Close releases the hash table (and its budget charge) and closes the
// outer input.
func (j *HashJoin) Close() error {
	j.probe.release()
	j.res.releaseAll()
	return j.Left.Close()
}

// Schema returns the concatenated schema.
func (j *HashJoin) Schema() *model.Schema { return j.schema }

// keyOwnedBy reports whether a column reference belongs to the given
// schema side (used by the optimizer to orient hash-join keys).
func keyOwnedBy(c *sql.ColumnRef, s *model.Schema) bool {
	if c.Qualifier != "" {
		return s.HasQualifier(strings.ToLower(c.Qualifier))
	}
	_, err := s.ColIndex("", c.Name)
	return err == nil
}

// OrientEquiKeys splits an equi-join conjunct's two column references
// into (leftKey, rightKey) relative to the given schemas; ok is false
// when neither orientation fits.
func OrientEquiKeys(a, b *sql.ColumnRef, left, right *model.Schema) (leftKey, rightKey *sql.ColumnRef, ok bool) {
	switch {
	case keyOwnedBy(a, left) && keyOwnedBy(b, right):
		return a, b, true
	case keyOwnedBy(b, left) && keyOwnedBy(a, right):
		return b, a, true
	default:
		return nil, nil, false
	}
}
