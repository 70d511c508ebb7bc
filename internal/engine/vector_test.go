package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/plan"
)

// resultStrings renders tuples plus their summary sets, so the
// differentials below catch summary-propagation divergence too, not
// just data-column divergence.
func resultStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Tuple.String() + " / " + r.Tuple.Summaries.String()
	}
	return out
}

// vectorCorpus is the capacity-invariance corpus: one shape per
// operator of the executor — heap scans, both index fetch modes, both
// pointer schemes, the baseline index, filters, projections, summary
// propagation on and off, every join implementation, serial and
// parallel aggregation with summary merge, duplicate elimination, and
// both sorts. op names the operator the optimized plan must contain, so
// a shape cannot silently stop exercising what it is here for; parOp
// is required additionally when four workers are allowed.
var vectorCorpus = []struct {
	name, q   string
	opts      optimizer.Options
	op, parOp string
}{
	{"scan_star", `SELECT * FROM Birds b`, optimizer.Options{}, "SeqScan", "Gather"},
	{"scan_filter", `SELECT id, name FROM Birds b WHERE b.family = 'Corvidae'`, optimizer.Options{}, "Select", "Gather"},
	{"scan_nosum", `SELECT id FROM Birds b WHERE b.id > 5 AND b.id <= 25 WITHOUT SUMMARIES`, optimizer.Options{}, "Select", ""},
	{"index_sorted", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
	  ORDER BY name`, optimizer.Options{}, "fetch=sorted", ""},
	{"index_ordered", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`,
		optimizer.Options{ForceFetch: "ordered"}, "fetch=ordered", ""},
	{"index_conventional", `SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`,
		optimizer.Options{ConventionalPointers: true}, "SummaryBTreeScan", ""},
	{"index_baseline", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 4`,
		optimizer.Options{UseBaseline: true}, "BaselineIndexScan", ""},
	{"group", `SELECT family, count(*), min(id), max(id) FROM Birds b GROUP BY family`,
		optimizer.Options{}, "GroupBy", "(parallel workers="},
	{"group_summary_pred", `SELECT family, count(*) FROM Birds b
	  WHERE b.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= 1 GROUP BY family`,
		optimizer.Options{NoSummaryIndex: true}, "GroupBy", "(parallel workers="},
	{"join_hash", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.family = s.family AND r.id < 5`, optimizer.Options{ForceJoin: "hash"}, "HashJoin", "parallel build"},
	{"join_nl", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.family = s.family AND r.id < 5`, optimizer.Options{ForceJoin: "nl"}, "NLJoin", ""},
	{"join_index", `SELECT r.id, s.name FROM Birds r, Birds s
	  WHERE r.id = s.id AND r.family = 'Laridae'`, optimizer.Options{ForceJoin: "index"}, "IndexJoin(id)", ""},
	{"join_summary", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.id = s.id AND r.id <= 20
	  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')
	    = s.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`,
		optimizer.Options{}, "J[", ""},
	{"join_nosum", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.family = s.family AND r.id < 5 AND s.id > 90 WITHOUT SUMMARIES`,
		optimizer.Options{}, "Join", ""},
	{"order_limit", `SELECT name FROM Birds b ORDER BY name LIMIT 7`, optimizer.Options{}, "Sort", ""},
	{"order_disk", `SELECT id, name FROM Birds b ORDER BY family, name DESC`,
		optimizer.Options{ForceSort: "disk", SortRunLen: 8}, "Sort", ""},
	{"order_summary", `SELECT id FROM Birds r
	  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC, id`,
		optimizer.Options{NoSummaryIndex: true}, "SummarySort", ""},
	{"distinct", `SELECT DISTINCT family FROM Birds b`, optimizer.Options{}, "Distinct", ""},
}

// TestVectorizedDifferential is the capacity-invariance differential:
// every shape, under MaxParallelWorkers 1 and 4, must return
// byte-identical ordered rows and summaries — and compile from the
// byte-identical plan — at batch capacities 1, 2, 3, 7 and 1024. There
// is one executor, so capacity 1 (one row per exchange) is the
// reference, the odd small sizes exercise the batch-boundary edges in
// every operator, and 1024 is the served configuration.
func TestVectorizedDifferential(t *testing.T) {
	db, _ := testDBWithConfig(t, 100, Config{PageCap: 4})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateDataIndex("Birds", "id"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range vectorCorpus {
		for _, workers := range []int{1, 4} {
			base := tc.opts
			base.MaxParallelWorkers = workers
			base.MaxBatchSize = 1
			ref, err := db.Query(tc.q, &base)
			if err != nil {
				t.Fatalf("%s workers=%d capacity=1: %v", tc.name, workers, err)
			}
			want, wantPlan := resultStrings(ref), plan.Explain(ref.Plan)
			if len(want) == 0 {
				t.Fatalf("%s: empty result exercises nothing", tc.name)
			}
			if !strings.Contains(wantPlan, tc.op) || (workers > 1 && !strings.Contains(wantPlan, tc.parOp)) {
				t.Fatalf("%s workers=%d: plan lacks %q/%q:\n%s", tc.name, workers, tc.op, tc.parOp, wantPlan)
			}
			for _, size := range []int{2, 3, 7, 1024} {
				opts := base
				opts.MaxBatchSize = size
				res, err := db.Query(tc.q, &opts)
				if err != nil {
					t.Fatalf("%s workers=%d capacity=%d: %v", tc.name, workers, size, err)
				}
				if got := plan.Explain(res.Plan); got != wantPlan {
					t.Fatalf("%s workers=%d: capacity %d changes the plan:\n%s\nvs\n%s",
						tc.name, workers, size, got, wantPlan)
				}
				got := resultStrings(res)
				if len(got) != len(want) {
					t.Fatalf("%s workers=%d capacity=%d: %d rows, capacity 1 gave %d",
						tc.name, workers, size, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s workers=%d capacity=%d diverges at row %d:\n%s\nvs capacity 1\n%s",
							tc.name, workers, size, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestVectorizedExplainGolden pins what capacity 1024 looks like from
// outside: EXPLAIN carries no capacity marks (plans are
// capacity-independent), and EXPLAIN ANALYZE shows the batch cadence —
// the same rows as analyze_scan.golden in two NextBatch calls per
// operator instead of one per row.
func TestVectorizedExplainGolden(t *testing.T) {
	db := goldenDB(t)
	opts := &optimizer.Options{MaxBatchSize: 1024}
	for name, q := range map[string]string{
		"explain_vectorized_scan": `SELECT id, name FROM Birds b WHERE b.family = 'Corvidae'`,
		"explain_vectorized_index": `SELECT id, name FROM Birds r
		  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
		  ORDER BY name`,
	} {
		out, err := db.Explain(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareGolden(t, name, out)
	}
	ap, err := db.ExplainAnalyze(`SELECT id FROM Birds b WHERE b.family = 'Corvidae'`, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "analyze_vectorized_scan", wallTimeRe.ReplaceAllString(ap.String(), "time=<t>"))
}

// TestVectorizedParallelRace drives batches across the parallel Gather
// exchange and the partitioned breakers under concurrent load — the
// -race leg of the vector-stress target. Each result must match the
// serial capacity-1 run exactly.
func TestVectorizedParallelRace(t *testing.T) {
	db, _ := testDBWithConfig(t, 120, Config{PageCap: 4})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT family, count(*), min(id), max(id) FROM Birds b GROUP BY family`,
		`SELECT id FROM Birds b WHERE b.family = 'Corvidae'`,
		`SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 1`,
	}
	serial := make(map[string][]string, len(queries))
	for _, q := range queries {
		res, err := db.Query(q, &optimizer.Options{MaxParallelWorkers: 1, MaxBatchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		rows := resultStrings(res)
		sort.Strings(rows)
		serial[q] = rows
	}
	opts := &optimizer.Options{MaxParallelWorkers: 4, MaxBatchSize: 1024}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(queries))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries {
				res, err := db.Query(q, opts)
				if err != nil {
					errs <- err
					return
				}
				rows := resultStrings(res)
				sort.Strings(rows)
				want := serial[q]
				if len(rows) != len(want) {
					errs <- fmt.Errorf("%s: %d rows, serial %d", q, len(rows), len(want))
					return
				}
				for i := range rows {
					if rows[i] != want[i] {
						errs <- fmt.Errorf("%s: row %d diverges from serial", q, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
