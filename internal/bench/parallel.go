package bench

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/pager"
	"repro/internal/workload"
)

// parallelPageCap shrinks pages for the parallel experiment so even the
// quick scale spans enough pages (~15 at 120 birds) to partition; the
// default 64-records-per-page layout would leave a 2-page table with
// nothing to parallelize.
const parallelPageCap = 8

// parallelReadDelay models rotating-disk page latency on the accountant
// (installed as the fault policy's per-page Latency, injecting no faults).
// In-memory page access is too fast for worker fan-out to beat goroutine
// startup; with an I/O-bound scan the speedup approaches the DOP, which
// is the regime the exchange operator exists for.
const parallelReadDelay = 40 * time.Microsecond

// Fig17Parallel measures intra-query parallel execution (an extension
// beyond the paper, whose engine is single-threaded per query): a
// scan-heavy summary selection and a parallel partial aggregation, each
// at worker caps 1/2/4, reporting serial-vs-parallel speedup and
// verifying the parallel plans return identical row counts.
func Fig17Parallel(h *Harness) (*Table, error) {
	avg := h.Scale.SortedGrid()[0]
	ds, err := workload.Build(workload.Config{
		Seed:                  h.Scale.Seed,
		Birds:                 h.Scale.Birds,
		AvgAnnotationsPerBird: avg,
		Engine:                engine.Config{PageCap: parallelPageCap},
		SkipSynonyms:          true,
	})
	if err != nil {
		return nil, err
	}
	db := ds.DB

	t := &Table{
		Figure:  "Figure 17 (extension)",
		Title:   "Intra-query parallelism: scan-heavy summary queries at worker caps 1/2/4 (modeled disk latency)",
		Headers: []string{"query", "workers", "rows", "time (ms)", "speedup"},
	}

	birds, err := db.Table("Birds")
	if err != nil {
		return nil, err
	}
	c := pickGreaterConstant(birds, "ClassBird1", "Disease", 0.3)
	queries := []struct{ name, q string }{
		{"summary selection", fmt.Sprintf(`SELECT id FROM Birds r
		   WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > %d`, c)},
		{"parallel aggregation", `SELECT family, count(*), max(id) FROM Birds b GROUP BY family`},
	}

	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{Latency: parallelReadDelay})
	defer db.Accountant().SetFaultPolicy(nil)
	workers := []int{1, 2, 4}
	for _, q := range queries {
		arms := make([]arm, len(workers))
		for i, w := range workers {
			arms[i] = arm{q: q.q, opts: &optimizer.Options{MaxParallelWorkers: w}}
		}
		m, err := timeArms(db, 2, arms...)
		if err != nil {
			return nil, fmt.Errorf("fig17: %s: %w", q.name, err)
		}
		for i, w := range workers {
			t.AddRow(q.name, fmt.Sprint(w), fmt.Sprint(m[i].rows), ms(m[i].best), ratio(m[0].best, m[i].best))
		}
		t.AddNote("%s: workers=4 speedup %s over serial (identical rows)", q.name, ratio(m[0].best, m[2].best))
	}
	t.AddNote("read delay %v/page models disk I/O; page cap %d spreads %d birds over enough pages to partition",
		parallelReadDelay, parallelPageCap, h.Scale.Birds)
	return t, nil
}
