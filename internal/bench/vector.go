package bench

import (
	"fmt"
	"math"
	"time"

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

// vectorFloor is the speedup of capacity 1024 over capacity 1 enforced
// on the headline scan. Both sides run the same operators and the same
// bound predicates, so the ratio is what batching alone buys: per-call
// overhead (dispatch, panic traps, pool round trips, cancellation
// polls) and per-row allocation amortized over the batch — 1.8–2.3x
// here. (Against the deleted tuple-at-a-time interpreter path the same
// scan measured ~10x; most of that was predicate binding, which
// capacity 1 now has too.)
const vectorFloor = 1.5

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
		name    string
		q       string
		enforce bool
	}{
		// The headline scan: a conjunctive multi-column predicate over the
		// whole table with a selective output, so nearly all the work is
		// per-row scan/filter overhead — batching's best case and the one
		// vectorFloor is enforced on.
		{"multi-predicate filter", `SELECT id FROM Birds b
		   WHERE b.wingspan_cm > 150 AND b.weight_g > 6000 AND b.family <> 'Corvidae'
		     AND b.status <> 'LC' WITHOUT SUMMARIES`, true},
		// A wide projection keeps the output path honest: every surviving
		// row carries three columns through the batched Project.
		{"scan projection", `SELECT id, sci_name, wingspan_cm FROM Birds b
		   WHERE b.id > 0 WITHOUT SUMMARIES`, false},
		// The Summary-BTree scan fills batches from its hit list; the
		// predicate is index-answered so no summaries are fetched.
		{"summary index scan", fmt.Sprintf(`SELECT id FROM Birds r
		   WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > %d
		   WITHOUT SUMMARIES`, c), false},
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
		rowTime, batchTime := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		var rowRows, batchRows int
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
		}
		if rowRows != batchRows {
			return nil, fmt.Errorf("fig24: %s returned %d rows at capacity 1024, %d at capacity 1",
				q.name, batchRows, rowRows)
		}
		speedup := float64(rowTime) / float64(batchTime)
		t.AddRow(q.name, fmt.Sprint(batchRows), ms(rowTime), ms(batchTime), ratio(rowTime, batchTime))
		if q.enforce && speedup < vectorFloor {
			return nil, fmt.Errorf("fig24: %s only %.1fx faster at capacity 1024 than at capacity 1, want >= %.1fx",
				q.name, speedup, vectorFloor)
		}
	}
	t.AddNote("one executor at both capacities: batches amortize per-row allocation, dispatch, cancellation polls, and panic traps; rows verified identical per query")
	t.AddNote("%d birds resident in memory; batch containers pooled, row storage slab-carved per batch",
		h.Scale.Birds*vectorBirdsFactor)
	return t, nil
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
