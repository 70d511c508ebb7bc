package bench

import (
	"fmt"
	"math"
	"time"

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
// executions each Figure 24 query gets; the best of each is reported.
// At 41 the enforced ratio varies by about ±10% between runs, also on a
// loaded two-core machine; at 3 it varied by 2x.
const vectorReps = 41

// Two bounds are enforced on the headline scan (EXPERIMENTS.md, Figure
// 24, compares them with the single ratio they replace).
//
// vectorFloor is the speedup of capacity 1024 over capacity 1. Both
// sides run the same operators and the same bound predicates, so the
// ratio is what batching alone buys: per-call overhead (dispatch, panic
// traps, pool round trips, cancellation polls) and per-row allocation
// amortized over the batch — 1.8–2.3x here. It catches a batched path
// that loses its edge (anything that slows capacity 1024 alone by a
// third), but not a slowdown of the per-row work the two share.
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
		// The headline scan: a conjunctive multi-column predicate over the
		// whole table with a selective output, so nearly all the work is
		// per-row scan/filter overhead — batching's best case and the one
		// vectorFloor and vectorCeiling are enforced on.
		{"multi-predicate filter", `SELECT id FROM Birds b
		   WHERE b.wingspan_cm > 150 AND b.weight_g > 6000 AND b.family <> 'Corvidae'
		     AND b.status <> 'LC' WITHOUT SUMMARIES`, handScan(birds)},
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
		rowOpts := &optimizer.Options{MaxBatchSize: 1}
		batchOpts := &optimizer.Options{MaxBatchSize: 1024}
		// Each execution is well under a millisecond, so one scheduler
		// or GC hiccup is a large share of it: alternate the two
		// capacities and keep the best of each, which leaves only noise
		// that persists across the whole series.
		const never = time.Duration(math.MaxInt64)
		rowTime, batchTime, handTime := never, never, never
		var rowRows, batchRows, handRows int
		for rep := 0; rep < vectorReps; rep++ {
			d, n, _, err := queryTime(db, q.q, batchOpts, 1)
			if err != nil {
				return nil, err
			}
			batchTime, batchRows = min(batchTime, d), n
			if d, n, _, err = queryTime(db, q.q, rowOpts, 1); err != nil {
				return nil, err
			}
			rowTime, rowRows = min(rowTime, d), n
			if q.hand != nil {
				start := time.Now()
				handRows = q.hand()
				handTime = min(handTime, time.Since(start))
			}
		}
		if rowRows != batchRows {
			return nil, fmt.Errorf("fig24: %s returned %d rows at capacity 1024, %d at capacity 1",
				q.name, batchRows, rowRows)
		}
		t.AddRow(q.name, fmt.Sprint(batchRows), ms(rowTime), ms(batchTime), ratio(rowTime, batchTime))
		if q.hand == nil {
			continue
		}
		if handRows != batchRows {
			return nil, fmt.Errorf("fig24: %s returned %d rows, the hand-written loop %d", q.name, batchRows, handRows)
		}
		speedup := float64(rowTime) / float64(batchTime)
		overhead := float64(batchTime) / float64(handTime)
		t.AddNote("%s as a hand-written loop over the same heap: %s ms; the executor at capacity 1024 costs %.1fx that (enforced <= %.1fx) and is %.1fx faster than at capacity 1 (enforced >= %.1fx)",
			q.name, ms(handTime), overhead, vectorCeiling, speedup, vectorFloor)
		if speedup < vectorFloor {
			return nil, fmt.Errorf("fig24: %s only %.1fx faster at capacity 1024 than at capacity 1, want >= %.1fx",
				q.name, speedup, vectorFloor)
		}
		if overhead > vectorCeiling {
			return nil, fmt.Errorf("fig24: %s at capacity 1024 costs %.1fx the hand-written loop (%s ms vs %s ms), want <= %.1fx",
				q.name, overhead, ms(batchTime), ms(handTime), vectorCeiling)
		}
	}
	t.AddNote("one executor at both capacities: batches amortize per-row allocation, dispatch, cancellation polls, and panic traps; rows verified identical per query")
	t.AddNote("%d birds resident in memory; batch containers pooled, row storage slab-carved per batch",
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
