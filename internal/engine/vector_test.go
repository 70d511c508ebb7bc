package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/pager"
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
// pointer schemes, a data filter between an index probe and the
// summary selection above it, the baseline index, filters, projections, summary
// propagation on and off, every join implementation, serial and
// parallel aggregation with summary merge, duplicate elimination, both
// sorts, and a LIMIT's row goal on an index-order top-k and over a
// selective σ. op names the operator the optimized plan must contain, so
// a shape cannot silently stop exercising what it is here for; parOp
// is required additionally when four workers are allowed.
var vectorCorpus = []struct {
	name, q   string
	opts      optimizer.Options
	op, parOp string
	params    []model.Value // bound to the `?` placeholders of q, in order
}{
	{"scan_star", `SELECT * FROM Birds b`, optimizer.Options{}, "SeqScan", "Gather", nil},
	{"scan_filter", `SELECT id, name FROM Birds b WHERE b.family = 'Corvidae'`, optimizer.Options{}, "Select", "Gather", nil},
	{"scan_nosum", `SELECT id FROM Birds b WHERE b.id > 5 AND b.id <= 25 WITHOUT SUMMARIES`, optimizer.Options{}, "Select", "", nil},
	{"index_sorted", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
	  ORDER BY name`, optimizer.Options{}, "fetch=sorted", "", nil},
	{"index_ordered", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`,
		optimizer.Options{ForceFetch: "ordered"}, "fetch=ordered", "", nil},
	{"index_conventional", `SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`,
		optimizer.Options{ConventionalPointers: true}, "SummaryBTreeScan", "", nil},
	{"index_data_filter", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3 AND r.family <> 'Corvidae'
	  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= 1`,
		optimizer.Options{}, "SummaryBTreeScan", "Gather", nil}, // S over σ over the probe: summaries attach above σ
	{"index_baseline", `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 4`,
		optimizer.Options{UseBaseline: true}, "BaselineIndexScan", "", nil},
	{"group", `SELECT family, count(*), min(id), max(id) FROM Birds b GROUP BY family`,
		optimizer.Options{}, "GroupBy", "(parallel workers=", nil},
	{"group_summary_pred", `SELECT family, count(*) FROM Birds b
	  WHERE b.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= 1 GROUP BY family`,
		optimizer.Options{NoSummaryIndex: true}, "GroupBy", "(parallel workers=", nil},
	{"join_hash", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.family = s.family AND r.id < 5`, optimizer.Options{ForceJoin: "hash"}, "HashJoin", "parallel build", nil},
	{"join_nl", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.family = s.family AND r.id < 5`, optimizer.Options{ForceJoin: "nl"}, "NLJoin", "", nil},
	{"join_index", `SELECT r.id, s.name FROM Birds r, Birds s
	  WHERE r.id = s.id AND r.family = 'Laridae'`, optimizer.Options{ForceJoin: "index"}, "IndexJoin(id)", "", nil},
	{"join_summary", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.id = s.id AND r.id <= 20
	  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')
	    = s.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`,
		optimizer.Options{}, "J[", "", nil},
	{"join_nosum", `SELECT r.id, s.id FROM Birds r, Birds s
	  WHERE r.family = s.family AND r.id < 5 AND s.id > 90 WITHOUT SUMMARIES`,
		optimizer.Options{}, "Join", "", nil},
	{"order_limit", `SELECT name FROM Birds b ORDER BY name LIMIT 7`, optimizer.Options{}, "Sort", "", nil},
	{"order_disk", `SELECT id, name FROM Birds b ORDER BY family, name DESC`,
		optimizer.Options{ForceSort: "disk", SortRunLen: 8}, "Sort", "", nil},
	{"order_summary", `SELECT id FROM Birds r
	  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC, id`,
		optimizer.Options{NoSummaryIndex: true}, "SummarySort", "", nil},
	{"distinct", `SELECT DISTINCT family FROM Birds b`, optimizer.Options{}, "Distinct", "", nil},
	{"topk_index_order", `SELECT id, r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2
	  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 6`,
		optimizer.Options{ForceFetch: "ordered"}, "eliminated: index order", "", nil}, // the row goal sizes the index scan's first batch
	{"limit_selective_filter", `SELECT id, name FROM Birds b WHERE b.id > 50 AND b.family = 'Laridae' LIMIT 4`,
		optimizer.Options{}, "Select", "", nil}, // the goal-sized first batch keeps no row; later ones double
	{"index_param", `SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?`,
		optimizer.Options{}, "SummaryBTreeScan", "", []model.Value{model.NewInt(2)}},
}

// selectEntryPoints are the two ways a SELECT reaches the one
// pipeline: Query splices the parameters in as literals and presents no
// plan-cache key; a prepared statement binds them and presents one.
var selectEntryPoints = []struct {
	name  string
	keyed bool
	run   func(db *DB, q string, params []model.Value, opts *optimizer.Options) (*Result, error)
}{
	{"Query", false, func(db *DB, q string, params []model.Value, opts *optimizer.Options) (*Result, error) {
		for _, p := range params {
			q = strings.Replace(q, "?", p.SQLLiteral(), 1)
		}
		return db.Query(q, opts)
	}},
	{"Prepare+Execute", true, func(db *DB, q string, params []model.Value, opts *optimizer.Options) (*Result, error) {
		st, err := db.Prepare(q)
		if err != nil {
			return nil, err
		}
		if st.NumParams() != len(params) {
			return nil, fmt.Errorf("NumParams = %d, want %d", st.NumParams(), len(params))
		}
		return st.Execute(params, opts)
	}},
}

// TestVectorizedDifferential is the configuration-matrix differential:
// every shape, under MaxParallelWorkers 1 and 4, must return
// byte-identical ordered rows and summaries — and run the byte-identical
// plan — in every cell of IngestFlushOps {0, 64} × entry point × batch
// capacity {1, 2, 3, 7, 1024}, and the same rows and summaries again
// with every page behind a buffer pool of pager.MinPoolFrames frames
// (the optimizer prices a pool, so plans are compared within one pool
// setting). There is one executor, one SELECT pipeline, one ingest
// routine, one page store and one plan cache, so the first cell
// (resident pages, flush per operation, Query, one row per exchange) is
// the reference; the odd small capacities exercise the batch-boundary
// edges in every operator, and 64 / 1024 is the served configuration.
// At threshold 64 each cell's database starts with a buffered tail the
// first read must flush.
func TestVectorizedDifferential(t *testing.T) {
	wantRows := map[string][]string{} // per shape × workers
	wantPlan := map[string]string{}   // per shape × workers × pool setting
	for _, cfg := range []Config{
		{PageCap: 4},
		{PageCap: 4, IngestFlushOps: 64},
		{PageCap: 4, BufferPoolPages: pager.MinPoolFrames},
	} {
		db, oids := testDBWithConfig(t, 100, cfg)
		if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateDataIndex("Birds", "id"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			mustAnnotate(t, db, oids[i], annText("Disease", 70+i))
		}
		if got := db.Metrics().Ingest.PendingOps; (got != 0) != (cfg.IngestFlushOps > 1) {
			t.Fatalf("IngestFlushOps=%d: %d ops pending before the first read", cfg.IngestFlushOps, got)
		}
		planned := map[string]bool{} // shapes the plan cache holds
		for _, tc := range vectorCorpus {
			for _, workers := range []int{1, 4} {
				for _, ep := range selectEntryPoints {
					for _, size := range []int{1, 2, 3, 7, 1024} {
						cell := fmt.Sprintf("%s workers=%d flush=%d pool=%d %s capacity=%d",
							tc.name, workers, cfg.IngestFlushOps, cfg.BufferPoolPages, ep.name, size)
						opts := tc.opts
						opts.MaxParallelWorkers = workers
						opts.MaxBatchSize = size
						res, err := ep.run(db, tc.q, tc.params, &opts)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						// Capacity and entry point are not part of the cache key, so
						// the first keyed execution of a shape misses and every later
						// one hits; an execution without a key never does.
						key := fmt.Sprintf("%s/%d", tc.name, workers)
						if hit := ep.keyed && planned[key]; res.CachedPlan != hit {
							t.Fatalf("%s: CachedPlan = %v, want %v", cell, res.CachedPlan, hit)
						}
						planned[key] = planned[key] || ep.keyed

						gotPlan := plan.Explain(res.Plan)
						planKey := fmt.Sprintf("%s/pool=%d", key, cfg.BufferPoolPages)
						if w, ok := wantPlan[planKey]; !ok {
							if !strings.Contains(gotPlan, tc.op) || (workers > 1 && !strings.Contains(gotPlan, tc.parOp)) {
								t.Fatalf("%s: plan lacks %q/%q:\n%s", cell, tc.op, tc.parOp, gotPlan)
							}
							wantPlan[planKey] = gotPlan
						} else if gotPlan != w {
							t.Fatalf("%s changes the plan:\n%s\nvs\n%s", cell, gotPlan, w)
						}

						got := resultStrings(res)
						w, ok := wantRows[key]
						if !ok {
							if len(got) == 0 {
								t.Fatalf("%s: empty result exercises nothing", tc.name)
							}
							wantRows[key] = got
							continue
						}
						if len(got) != len(w) {
							t.Fatalf("%s: %d rows, the reference cell gave %d", cell, len(got), len(w))
						}
						for i := range got {
							if got[i] != w[i] {
								t.Fatalf("%s diverges at row %d:\n%s\nvs the reference cell\n%s", cell, i, got[i], w[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestKeptRowsOutliveTheirBatches: a row is valid only until the batch
// that carries it is released, so every operator that keeps one copies
// it. Each shape keeps rows past their batches in a different place —
// Collect over a bare scan, a hash build behind a filter, NLJoin's
// materialized inner, GROUP BY's first row of a group, Sort's buffer
// over joined rows whose values live in the probe's batches. Every
// result is recorded as it is collected; the same shapes then run again
// at the same capacity, reusing the batches and their storage, and the
// held results must still read as recorded.
func TestKeptRowsOutliveTheirBatches(t *testing.T) {
	db, _ := testDBWithConfig(t, 100, Config{PageCap: 4})
	shapes := []struct {
		name, q string
		opts    optimizer.Options
		op      string
	}{
		{"identity", `SELECT * FROM Birds b`, optimizer.Options{}, "SeqScan"},
		{"hash_filtered_build", `SELECT * FROM Birds r, Birds s WHERE r.family = s.family AND s.id > 80`,
			optimizer.Options{ForceJoin: "hash"}, "HashJoin"},
		{"nl_inner", `SELECT * FROM Birds r, Birds s WHERE r.id = s.id + 1 AND s.name <> 'x'`,
			optimizer.Options{ForceJoin: "nl"}, "NLJoin"},
		{"group", `SELECT family, count(*), min(name) FROM Birds b GROUP BY family`, optimizer.Options{}, "GroupBy"},
		{"sort_join", `SELECT * FROM Birds r, Birds s WHERE r.family = s.family AND r.id < 8 ORDER BY s.name DESC, r.id`,
			optimizer.Options{ForceJoin: "hash"}, "Sort"},
	}
	// record renders OIDs too (GROUP BY's is its first row's). No bird
	// has a NULL value, and OIDs are positive: a NULL or a non-positive
	// OID is a released row, poisoned in race builds.
	record := func(res *Result) string {
		var sb strings.Builder
		for _, r := range res.Rows {
			if r.Tuple.OID <= 0 || slices.ContainsFunc(r.Tuple.Values, model.Value.IsNull) {
				t.Errorf("a held row reads as released: OID %d, values %s", r.Tuple.OID, r.Tuple)
			}
			fmt.Fprintf(&sb, "%d %s / %s\n", r.Tuple.OID, r.Tuple, r.Tuple.Summaries)
		}
		return sb.String()
	}
	for _, size := range []int{1, 2, 1024} {
		run := func(i int) *Result {
			opts := shapes[i].opts
			opts.MaxBatchSize = size
			res, err := db.Query(shapes[i].q, &opts)
			if err != nil {
				t.Fatalf("%s capacity %d: %v", shapes[i].name, size, err)
			}
			return res
		}
		held := make([]*Result, len(shapes))
		want := make([]string, len(shapes))
		for i, sh := range shapes {
			held[i] = run(i)
			if p := plan.Explain(held[i].Plan); !strings.Contains(p, sh.op) || len(held[i].Rows) == 0 {
				t.Fatalf("%s: %d rows, plan lacks %s:\n%s", sh.name, len(held[i].Rows), sh.op, p)
			}
			want[i] = record(held[i])
		}
		for range 2 {
			for i := range shapes {
				run(i)
			}
		}
		for i, sh := range shapes {
			if got := record(held[i]); got != want[i] {
				t.Errorf("%s capacity %d: a held result changed after later statements:\n%s\nwas\n%s",
					sh.name, size, got, want[i])
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
