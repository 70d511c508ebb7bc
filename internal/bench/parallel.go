package bench

import (
	"fmt"
	"time"

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
		PageCap:               parallelPageCap,
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
	for _, q := range queries {
		var serialTime, last time.Duration
		var serialRows int
		for _, workers := range []int{1, 2, 4} {
			opts := &optimizer.Options{MaxParallelWorkers: workers}
			d, rows, _, err := queryTime(db, q.q, opts, 2)
			if err != nil {
				return nil, err
			}
			if workers == 1 {
				serialTime, serialRows = d, rows
			} else if rows != serialRows {
				return nil, fmt.Errorf("parallel %s (workers=%d) returned %d rows, serial %d",
					q.name, workers, rows, serialRows)
			}
			last = d
			t.AddRow(q.name, fmt.Sprint(workers), fmt.Sprint(rows), ms(d), ratio(serialTime, d))
		}
		t.AddNote("%s: workers=4 speedup %s over serial (identical rows)", q.name, ratio(serialTime, last))
	}
	t.AddNote("read delay %v/page models disk I/O; page cap %d spreads %d birds over enough pages to partition",
		parallelReadDelay, parallelPageCap, h.Scale.Birds)
	return t, nil
}
