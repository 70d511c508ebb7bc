package bench

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// vectorBirdsFactor scales the Birds table up for the vectorization
// experiment: batching attacks per-row executor overhead, which only
// dominates on scans long enough that planning and result handling are
// noise.
const vectorBirdsFactor = 20

// vectorReps is how many alternating capacity-1/capacity-1024
// executions one series of a Figure 24 query gets; the best of each is
// reported. At 41 the enforced ratio varies by about ±10% between
// series, also on a loaded two-core machine; at 3 it varied by 2x.
const vectorReps = 41

// vectorRounds caps the series the gated query gets. A bound fails
// only when no series clears it, so one slow series (a scheduler or GC
// stall on one side) cannot fail the gate, and a regression that moves
// the ratio past the bound fails every series. The deterministic twin
// is TestVectorizedAllocBudget: allocations and operator calls per row
// at capacity 1 vs 1024 on the same query.
const vectorRounds = 5

// Two bounds are enforced on the headline scan (EXPERIMENTS.md, Figure
// 24, compares them with the single ratio they replace).
//
// vectorFloor is the speedup of capacity 1024 over capacity 1. Both
// sides run the same operators and the same bound predicates, so the
// ratio is what batching alone buys: per-call overhead (dispatch, panic
// traps, cancellation polls) amortized over the batch, and each filter
// conjunct run over a whole batch at once — 1.7–1.8x here. At both
// capacities a scan reuses its batches' row storage, so allocation is
// not part of the ratio (it was 1.8–2.3x while capacity 1 allocated two
// objects a row, and 1.5–1.6x while filters ran their conjuncts row by
// row). It catches a batched path that loses its edge, but not a
// slowdown of the per-row work the two share.
//
// vectorCeiling is that other half: what the executor at capacity 1024
// may cost relative to handScan, a hand-written loop over the same heap
// that evaluates the same predicate with no executor at all. The loop
// is timed in the same process, alternating with the queries, so the
// bound travels across machines: 2.9–3.3x here, and a 2x slowdown of
// the capacity-1024 path fails it.
const (
	vectorFloor   = 1.5
	vectorCeiling = 10.0
)

// VectorHeadlineQuery is Figure 24's headline scan: a conjunctive
// multi-column predicate over the whole table with a selective output,
// so nearly all the work is per-row scan/filter overhead.
const VectorHeadlineQuery = `SELECT id FROM Birds b
	WHERE b.wingspan_cm > 150 AND b.weight_g > 6000 AND b.family <> 'Corvidae'
	  AND b.status <> 'LC' WITHOUT SUMMARIES`

// Fig24Vectorized measures batch-at-a-time execution (an extension
// beyond the paper, whose engine is row-at-a-time): warm in-memory
// scan-heavy queries under MaxBatchSize 1 (one row per exchange) vs
// 1024 through the same operators, reporting the speedup and verifying
// both capacities return identical rows. The dataset deliberately stays
// resident (no read delay, no pool cap): batching amortizes CPU
// overhead — per-row allocation, dispatch, cancellation polls, panic
// traps — not I/O, so the warm cache is the regime it targets.
func Fig24Vectorized(h *Harness) (*Table, error) {
	ds, err := workload.Build(workload.Config{
		Seed:                   h.Scale.Seed,
		Birds:                  h.Scale.Birds * vectorBirdsFactor,
		AvgAnnotationsPerBird:  2,
		SkipSynonyms:           true,
		LongAnnotationFraction: -1,
	})
	if err != nil {
		return nil, err
	}
	db := ds.DB
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		return nil, err
	}
	birds, err := db.Table("Birds")
	if err != nil {
		return nil, err
	}
	c := pickGreaterConstant(birds, "ClassBird1", "Disease", 0.5)

	queries := []struct {
		name string
		q    string
		// hand, when set, is the query written as a plain loop; it marks
		// the query the two gates are enforced on.
		hand func() int
	}{
		// The headline scan: batching's best case and the one vectorFloor
		// and vectorCeiling are enforced on.
		{"multi-predicate filter", VectorHeadlineQuery, handScan(birds)},
		// A wide projection keeps the output path honest: every surviving
		// row carries three columns through the batched Project.
		{"scan projection", `SELECT id, sci_name, wingspan_cm FROM Birds b
		   WHERE b.id > 0 WITHOUT SUMMARIES`, nil},
		// The Summary-BTree scan fills batches from its hit list; the
		// predicate is index-answered so no summaries are fetched.
		{"summary index scan", fmt.Sprintf(`SELECT id FROM Birds r
		   WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > %d
		   WITHOUT SUMMARIES`, c), nil},
	}

	t := &Table{
		Figure:  "Figure 24 (extension)",
		Title:   "Vectorized execution: warm scan-heavy queries, batch capacity 1 (one row per exchange) vs 1024",
		Headers: []string{"query", "rows", "capacity=1 (ms)", "capacity=1024 (ms)", "speedup"},
	}

	for _, q := range queries {
		if err := vectorCheckIdentical(db, q.q); err != nil {
			return nil, err
		}
		arms := []arm{
			{q: q.q, opts: &optimizer.Options{MaxBatchSize: 1024}},
			{q: q.q, opts: &optimizer.Options{MaxBatchSize: 1}},
		}
		if q.hand != nil {
			arms = append(arms, arm{hand: q.hand})
		}
		// A gated query gets up to vectorRounds series and passes at the
		// first whose ratios clear both bounds.
		var m []timing
		var speedup, overhead float64
		round := 1
		for ; ; round++ {
			if m, err = timeArms(db, vectorReps, arms...); err != nil {
				return nil, fmt.Errorf("fig24: %s: %w", q.name, err)
			}
			speedup = float64(m[1].best) / float64(m[0].best)
			if q.hand == nil {
				break
			}
			overhead = float64(m[0].best) / float64(m[2].best)
			if speedup >= vectorFloor && overhead <= vectorCeiling || round == vectorRounds {
				break
			}
		}
		t.AddRow(q.name, fmt.Sprint(m[0].rows), ms(m[1].best), ms(m[0].best), ratio(m[1].best, m[0].best))
		if q.hand == nil {
			continue
		}
		t.AddNote("%s as a hand-written loop over the same heap: %s ms; the executor at capacity 1024 costs %.1fx that (enforced <= %.1fx) and is %.1fx faster than at capacity 1 (enforced >= %.1fx), in series %d of at most %d",
			q.name, ms(m[2].best), overhead, vectorCeiling, speedup, vectorFloor, round, vectorRounds)
		if speedup < vectorFloor {
			return nil, fmt.Errorf("fig24: %s only %.1fx faster at capacity 1024 than at capacity 1 in the last of %d series, want >= %.1fx",
				q.name, speedup, vectorRounds, vectorFloor)
		}
		if overhead > vectorCeiling {
			return nil, fmt.Errorf("fig24: %s at capacity 1024 costs %.1fx the hand-written loop (%s ms vs %s ms) in the last of %d series, want <= %.1fx",
				q.name, overhead, ms(m[0].best), ms(m[2].best), vectorRounds, vectorCeiling)
		}
	}
	t.AddNote("one executor at both capacities: batches amortize dispatch, cancellation polls, and panic traps; rows verified identical per query")
	t.AddNote("%d birds resident in memory; a scan's batches own and reuse their row storage",
		h.Scale.Birds*vectorBirdsFactor)
	return t, nil
}

// handScan is the headline scan with no executor: a loop over the Birds
// heap evaluating the same four conjuncts on the stored values and
// collecting the ids. It is what vectorCeiling is measured against, and
// returns the number of qualifying rows.
func handScan(birds *catalog.Table) func() int {
	col := func(name string) int {
		i, err := birds.Schema.ColIndex("", name)
		if err != nil {
			panic(err)
		}
		return i
	}
	id, wingspan, weight := col("id"), col("wingspan_cm"), col("weight_g")
	family, status := col("family"), col("status")
	return func() int {
		var ids []int64
		cur := birds.Data.Cursor()
		defer cur.Close()
		for {
			_, _, v, ok := cur.Next()
			if !ok {
				return len(ids)
			}
			if v[wingspan].Int > 150 && v[weight].Int > 6000 &&
				v[family].Text != "Corvidae" && v[status].Text != "LC" {
				ids = append(ids, v[id].Int)
			}
		}
	}
}

// vectorCheckIdentical compares the full result contents (not just
// counts) of the capacity-1 and capacity-1024 executions of q.
func vectorCheckIdentical(db *engine.DB, q string) error {
	row, err := db.Query(q, &optimizer.Options{MaxBatchSize: 1})
	if err != nil {
		return err
	}
	batch, err := db.Query(q, &optimizer.Options{MaxBatchSize: 1024})
	if err != nil {
		return err
	}
	if len(row.Rows) != len(batch.Rows) {
		return fmt.Errorf("fig24: row counts diverge: %d vs %d", len(row.Rows), len(batch.Rows))
	}
	for i := range row.Rows {
		if row.Rows[i].Tuple.String() != batch.Rows[i].Tuple.String() {
			return fmt.Errorf("fig24: row %d diverges between capacity 1 and capacity 1024", i)
		}
	}
	return nil
}
