// Benchmarks for the paper's evaluation (Section 6) and for the
// operations no figure covers. BenchmarkFigures times every figure of
// internal/bench's registry at the quick scale, through the same
// function `go run ./cmd/benchreport` prints (with its shape checks);
// the rest isolate the Summary-BTree's operations, the join
// implementations, and the executor's allocation, merge and top-k
// paths, each with the regression test that guards it.
package insightnotes_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

func benchQuery(b *testing.B, db *engine.DB, q string, opts *optimizer.Options) {
	b.Helper()
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(res.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkFigures regenerates each figure of the registry at the quick
// scale, one sub-benchmark per entry (go test -bench 'BenchmarkFigures/Fig10'
// runs one). Every iteration gets a fresh harness, made outside the
// timer; the datasets a figure builds are part of its time.
func BenchmarkFigures(b *testing.B) {
	for _, f := range bench.Figures {
		b.Run(f.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := bench.NewHarness(bench.QuickScale())
				b.StartTimer()
				if _, err := f.Run(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTheorem_IndexOps isolates the Summary-BTree maintenance and
// probe operations whose complexity bounds Section 4.1.3 states.
func BenchmarkTheorem_IndexOps(b *testing.B) {
	build := func(n int) (*index.SummaryBTree, []heap.RID) {
		idx := index.NewSummaryBTree(nil, "C")
		rng := rand.New(rand.NewSource(3))
		rids := make([]heap.RID, n)
		for i := 0; i < n; i++ {
			rids[i] = heap.RID{Page: int32(i / 64), Slot: int32(i % 64)}
			obj := &model.SummaryObject{InstanceID: "C", TupleOID: int64(i), Type: model.SummaryClassifier,
				Reps: []model.Rep{
					{Label: "Disease", Count: rng.Intn(200)},
					{Label: "Anatomy", Count: rng.Intn(200)},
					{Label: "Behavior", Count: rng.Intn(200)},
					{Label: "Other", Count: rng.Intn(200)},
				}}
			idx.IndexObject(obj, rids[i])
		}
		return idx, rids
	}
	for _, n := range []int{1000, 10000, 100000} {
		idx, rids := build(n)
		b.Run(fmt.Sprintf("EqualitySearch/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Search("Disease", index.OpEq, i%200)
			}
		})
		b.Run(fmt.Sprintf("UpdateLabel/N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				old := i % 200
				idx.UpdateLabel("Disease", old, old+1, rids[i%len(rids)])
				idx.UpdateLabel("Disease", old+1, old, rids[i%len(rids)])
			}
		})
	}
}

// joinFixture builds Birds and five Synonyms a bird, with the data index
// on Synonyms.bird_id that the index join probes.
func joinFixture(tb testing.TB) *engine.DB {
	tb.Helper()
	ds, err := workload.Build(workload.Config{
		Seed: 1, Birds: 200, AvgAnnotationsPerBird: 2, SynonymsPerBird: 5, LongAnnotationFraction: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.DB.Close() })
	if err := ds.DB.CreateDataIndex("Synonyms", "bird_id"); err != nil {
		tb.Fatal(err)
	}
	return ds.DB
}

// BenchmarkAblation_JoinImplementations compares the three data-join
// implementations on the same Birds ⋈ Synonyms query — an ablation for
// the "more implementation choices" extension (the paper ships NL and
// index joins; hash join is this reproduction's addition).
func BenchmarkAblation_JoinImplementations(b *testing.B) {
	db := joinFixture(b)
	q := `SELECT r.id FROM Birds r, Synonyms s WHERE r.id = s.bird_id AND r.id < 50`
	for _, impl := range []struct{ force, op string }{{"nl", "NLJoin"}, {"hash", "HashJoin"}, {"index", "IndexJoin"}} {
		opts := &optimizer.Options{ForceJoin: impl.force}
		if p, err := db.Explain(q, opts); err != nil || !strings.Contains(p, impl.op) {
			b.Fatalf("ForceJoin %q does not plan a %s (%v):\n%s", impl.force, impl.op, err, p)
		}
		b.Run(impl.force, func(b *testing.B) {
			benchQuery(b, db, q, opts)
		})
	}
}

// allocFixture builds the warm single-table dataset for the
// vectorization allocation measurements: no synonyms or long
// annotations, so the scan-heavy query is the entire cost.
func allocFixture(tb testing.TB) *engine.DB {
	tb.Helper()
	ds, err := workload.Build(workload.Config{
		Seed: 1, Birds: 1000, AvgAnnotationsPerBird: 2,
		SkipSynonyms: true, LongAnnotationFraction: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ds.DB
}

const allocQuery = `SELECT id, sci_name FROM Birds b WHERE b.id > 0 WITHOUT SUMMARIES`

// BenchmarkVectorizedScanAllocs reports the allocation profile of two
// warm prepared queries at batch capacity 1 vs 1024 (run with -benchmem
// and compare allocs/op and B/op): the scan->filter->project that
// outputs every row, and Figure 24's headline scan, whose filter drops
// most of the rows it reads.
func BenchmarkVectorizedScanAllocs(b *testing.B) {
	db := allocFixture(b)
	for _, q := range []struct{ name, sql string }{
		{"FullScan", allocQuery}, {"Headline", bench.VectorHeadlineQuery},
	} {
		st, err := db.Prepare(q.sql)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{1, 1024} {
			opts := &optimizer.Options{MaxBatchSize: size}
			b.Run(fmt.Sprintf("%s/Capacity%d", q.name, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := st.Execute(nil, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// poolDropRate is the share of sync.Pool puts the runtime drops: none,
// except under the race detector (race_test.go).
var poolDropRate = 0.0

// TestVectorizedAllocBudget is the regression guard on the executor's
// batching, and the counted twin of Figure 24's wall-time bounds. On a
// warm scan that outputs every row, and on Figure 24's headline
// multi-predicate scan, the same cached plan (Prepare + Execute) at
// capacity 1024 must allocate under 1 time per scanned row and less
// than at capacity 1, and its operators must take at most one NextBatch
// call per 50 scanned rows (summed over the plan, from EXPLAIN
// ANALYZE), where capacity 1 takes at least one per row. At capacity 1
// the full scan must allocate at most 0.25 times per row (plus slack
// for the containers the race detector's pool drops): the scan writes
// its rows into its batches' own storage, which Release hands back to
// it, and Project carves its rows from slabs that grow past the batch.
// A per-row allocation sneaking into an operator (row boxing, per-row
// alias maps, unpooled containers, per-batch row storage), or a
// capacity that no longer reaches the operators, trips this on any
// machine at any load.
func TestVectorizedAllocBudget(t *testing.T) {
	db := allocFixture(t)
	const birds = 1000
	for _, c := range []struct{ name, q string }{
		{"full scan", allocQuery}, {"Figure 24 headline", bench.VectorHeadlineQuery},
	} {
		q := c.q
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		measure := func(size int) (allocsPerRow, callsPerRow float64) {
			opts := &optimizer.Options{MaxBatchSize: size}
			ap, err := db.ExplainAnalyze(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rows := len(ap.Result.Rows); rows == 0 || q == allocQuery && rows != birds {
				t.Fatalf("fixture drift: %s returns %d rows of %d birds", c.name, rows, birds)
			}
			var calls int64
			ap.Root.Walk(func(n *optimizer.AnalyzedNode) {
				if n.Stats != nil {
					calls += n.Stats.NextCalls
				}
			})
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := st.Execute(nil, opts); err != nil {
					t.Fatal(err)
				}
			})
			return allocs / birds, float64(calls) / birds
		}
		single, singleCalls := measure(1)
		batch, batchCalls := measure(1024)
		if batch >= 1.0 {
			t.Errorf("%s: capacity 1024 allocates %.2f/row, budget is < 1", c.name, batch)
		}
		// A container that goes through the pool is two allocations when
		// the pool has dropped it.
		if budget := 0.25 + 2*poolDropRate; q == allocQuery && single > budget {
			t.Errorf("%s: capacity 1 allocates %.2f/row, budget is <= %.2f", c.name, single, budget)
		}
		if batch >= single {
			t.Errorf("%s: capacity 1024 (%.2f allocs/row) not cheaper than capacity 1 (%.2f)", c.name, batch, single)
		}
		if batchCalls > 1.0/50 || singleCalls < 1 {
			t.Errorf("%s: %.3f operator calls/row at capacity 1024, %.3f at capacity 1; want <= 0.02 and >= 1",
				c.name, batchCalls, singleCalls)
		}
	}
}

// TestHeldResultRetainsOnlyItsRows: a held Result keeps its rows alive
// and nothing else of the statement that made them — not the batch
// storage they travelled in, nor the rows a filter dropped. The 726
// Corvidae of 5,000 birds under an identity SELECT * (no Project above
// the scan, so Collect copies each row out of its batch) may keep at
// most 72 KB live at either capacity: about a Row and a Tuple each,
// whose values are the table's. The least of three measurements
// counts: what else the process allocates meanwhile only adds to one.
func TestHeldResultRetainsOnlyItsRows(t *testing.T) {
	ds, err := workload.Build(workload.Config{Seed: 1, Birds: 5000, AvgAnnotationsPerBird: 2, SkipSynonyms: true, LongAnnotationFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.DB.Close()
	const q = `SELECT * FROM Birds b WHERE b.family = 'Corvidae'`
	live := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, size := range []int{1, 1024} {
		opts := &optimizer.Options{MaxBatchSize: size}
		if _, err := ds.DB.Query(q, opts); err != nil {
			t.Fatal(err)
		}
		held, rows := int64(math.MaxInt64), 0
		for range 3 {
			before := live()
			res, err := ds.DB.Query(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			held, rows = min(held, live()-before), len(res.Rows)
			runtime.KeepAlive(res)
		}
		if rows != 726 {
			t.Fatalf("fixture drift: %d Corvidae, want 726", rows)
		}
		if held > 72<<10 {
			t.Errorf("capacity %d: a held result of %d rows keeps %d KB live, want <= 72 KB", size, rows, held>>10)
		}
		t.Logf("capacity %d: %d rows keep %.1f KB live", size, rows, float64(held)/1024)
	}
}

// mergeFixture builds Birds alone, ten annotations a bird, for the
// summary-merging GROUP BY: the family count is fixed, so a group's
// membership — and the merge's work — grows with the table.
func mergeFixture(tb testing.TB, birds int) *engine.DB {
	tb.Helper()
	ds, err := workload.Build(workload.Config{
		Seed: 1, Birds: birds, AvgAnnotationsPerBird: 10, SkipSynonyms: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.DB.Close() })
	return ds.DB
}

const mergeQuery = `SELECT family, count(*) FROM Birds GROUP BY family`

// BenchmarkGroupByMerge times the GROUP BY that propagates summaries —
// every member's summary set is merged into its group's — at three
// table sizes. Linear merge means ns/op grows with the birds, not with
// their square (EXPERIMENTS.md, "Summary merge").
func BenchmarkGroupByMerge(b *testing.B) {
	for _, birds := range []int{500, 2000, 10000} {
		b.Run(fmt.Sprint(birds), func(b *testing.B) {
			db := mergeFixture(b, birds)
			b.ResetTimer()
			benchQuery(b, db, mergeQuery, nil)
		})
	}
}

// TestGroupByMergeLinear is the regression guard on the merge's
// complexity: four times the birds in the same families may cost at most
// five times the allocations (linear is four; the pairwise fold that
// re-cloned the group's set per member measured seventeen).
func TestGroupByMergeLinear(t *testing.T) {
	measure := func(birds int) float64 {
		db := mergeFixture(t, birds)
		res, err := db.Query(mergeQuery, nil)
		if err != nil {
			t.Fatal(err)
		}
		var members int64
		for _, row := range res.Rows {
			if len(row.Tuple.Summaries) == 0 {
				t.Fatalf("group %s carries no summaries", row.Tuple)
			}
			members += row.Tuple.Values[1].Int
		}
		if members != int64(birds) {
			t.Fatalf("fixture drift: groups hold %d birds, want %d", members, birds)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := db.Query(mergeQuery, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(250), measure(1000)
	if large > 5*small {
		t.Errorf("GROUP BY over 1000 birds allocates %.0f, over 250 birds %.0f: %.1fx for 4x the rows, want <= 5x",
			large, small, large/small)
	}
}

// topKFixture builds Birds alone, ten annotations a bird, with a
// Summary-BTree on ClassBird1 for the top-k in index order.
func topKFixture(tb testing.TB) *engine.DB {
	tb.Helper()
	ds, err := workload.Build(workload.Config{
		Seed: 1, Birds: 10000, AvgAnnotationsPerBird: 10, SkipSynonyms: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ds.DB.Close() })
	if err := ds.DB.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		tb.Fatal(err)
	}
	return ds.DB
}

// pickAtLeast returns the largest count c for which "label >= c"
// qualifies at least target rows, and how many rows it qualifies.
func pickAtLeast(t *catalog.Table, instance, label string, target int) (c, rows int) {
	values := t.Stats(instance).Label(label).Values()
	for v := range values {
		c = max(c, v)
	}
	for ; c > 0; c-- {
		if rows += values[c]; rows >= target {
			break
		}
	}
	return c, rows
}

// BenchmarkTopKRowGoal times the paper's summary-based top-k — ORDER BY
// a label count LIMIT 20, answered in Summary-BTree order — at a few
// dozen and a few thousand qualifying rows, DESC and ASC, at batch
// capacity 1 and 1024. The LIMIT's row goal sizes the index scan's first
// batch to 20, and the scan pulls its hits off an index cursor walking
// in the ORDER BY's direction, so every cell fetches 20 rows and 20
// summary sets from the leaves holding them: the cost does not grow
// with the qualifying rows, nor with the capacity.
func BenchmarkTopKRowGoal(b *testing.B) {
	db := topKFixture(b)
	birds, _ := db.Table("Birds")
	for _, target := range []int{50, 5000} {
		c, hits := pickAtLeast(birds, "ClassBird1", "Disease", target)
		for _, dir := range []string{"DESC", "ASC"} {
			q := fmt.Sprintf(`SELECT id, common_name FROM Birds r
			WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= %d
			ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') %s LIMIT 20`, c, dir)
			for _, size := range []int{1, 1024} {
				opts := &optimizer.Options{MaxBatchSize: size, MaxParallelWorkers: 1}
				if p, err := db.Explain(q, opts); err != nil || !strings.Contains(p, "eliminated: index order") {
					b.Fatalf("want the index order to stand in for the sort (%v):\n%s", err, p)
				}
				b.Run(fmt.Sprintf("hits=%d/%s/Capacity%d", hits, dir, size), func(b *testing.B) {
					benchQuery(b, db, q, opts)
				})
			}
		}
	}
}
