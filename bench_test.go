// Benchmarks regenerating the measured operation behind every table and
// figure of the paper's evaluation (Section 6), one benchmark per
// figure, with sub-benchmarks for the figure's series. The full
// paper-shaped sweeps (x-axis grids, ratio columns, notes) are produced
// by `go run ./cmd/benchreport`; these testing.B benchmarks isolate each
// figure's core operation for profiling and regression tracking.
package insightnotes_test

import (
	"fmt"
	"math/rand"
	"sync"
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

// fixture is the shared benchmark dataset: 200 birds × ~20 annotations
// (the paper's mid-grid shape at 1/225 scale), with both index schemes,
// a synonyms table, a V2 revision, and a T replica.
type fixture struct {
	ds *workload.Dataset
	db *engine.DB
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func sharedFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		ds, err := workload.Build(workload.Config{
			Seed: 1, Birds: 200, AvgAnnotationsPerBird: 20,
			SynonymsPerBird: 5, AnnotateSynonymsFraction: 0.15,
			LongAnnotationFraction: 0.01,
		})
		if err != nil {
			fixErr = err
			return
		}
		db := ds.DB
		for _, step := range []func() error{
			func() error { return db.CreateSummaryIndex("Birds", "ClassBird1") },
			func() error { return db.CreateBaselineIndex("Birds", "ClassBird1") },
			func() error { return db.CreateDataIndex("Synonyms", "bird_id") },
			func() error { return db.CreateDataIndex("Birds", "id") },
			func() error {
				return ds.BuildVersionTable("BirdsV2", map[int]bool{3: true, 50: true, 101: true})
			},
			func() error { return db.CreateDataIndex("BirdsV2", "id") },
			func() error {
				if _, err := db.CreateTable("BirdsT", workload.BirdsSchema()); err != nil {
					return err
				}
				birds, _ := db.Table("Birds")
				birds.Scan(func(_ heap.RID, tu *model.Tuple) bool {
					db.Insert("BirdsT", tu.Values...)
					return true
				})
				return db.CreateDataIndex("BirdsT", "id")
			},
		} {
			if err := step(); err != nil {
				fixErr = err
				return
			}
		}
		fix = &fixture{ds: ds, db: db}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

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

// diseaseEqQuery builds the Figure 10/13 SP query at roughly the given
// equality selectivity.
func diseaseEqQuery(f *fixture, sel float64, suffix string) string {
	birds, _ := f.db.Table("Birds")
	c := pickEq(birds, "ClassBird1", "Disease", sel)
	return fmt.Sprintf(`SELECT * FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = %d%s`, c, suffix)
}

func pickEq(t *catalog.Table, instance, label string, target float64) int {
	ls := t.Stats(instance).Label(label)
	best, bestDiff := 0, 2.0
	for v, cnt := range ls.Values() {
		d := float64(cnt)/float64(ls.N()) - target
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = v, d
		}
	}
	return best
}

// BenchmarkFig07_StorageOverhead reports the storage footprints of both
// indexing schemes as custom metrics (bytes, not time).
func BenchmarkFig07_StorageOverhead(b *testing.B) {
	f := sharedFixture(b)
	birds, _ := f.db.Table("Birds")
	var objects, baseline, sbtree int
	for i := 0; i < b.N; i++ {
		objects = 0
		birds.SummaryStorage.Scan(func(_ heap.RID, _ int64, set model.SummarySet) bool {
			objects += catalog.EstimateSetSize(set)
			return true
		})
		baseline = f.db.BaselineIndex("Birds", "ClassBird1").SizeBytes()
		sbtree = f.db.SummaryIndex("Birds", "ClassBird1").SizeBytes()
	}
	b.ReportMetric(float64(objects), "objects-bytes")
	b.ReportMetric(float64(baseline), "baseline-bytes")
	b.ReportMetric(float64(sbtree), "sbtree-bytes")
	if baseline <= sbtree {
		b.Fatalf("shape violation: baseline %d <= sbtree %d", baseline, sbtree)
	}
}

// BenchmarkFig08_BulkCreation measures bulk index creation.
func BenchmarkFig08_BulkCreation(b *testing.B) {
	f := sharedFixture(b)
	b.Run("SummaryBTree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.db.DropSummaryIndex("Birds", "ClassBird1")
			if err := f.db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.db.DropBaselineIndex("Birds", "ClassBird1")
			if err := f.db.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig09_IncrementalIndexing measures per-annotation insertion
// under the three maintenance configurations.
func BenchmarkFig09_IncrementalIndexing(b *testing.B) {
	build := func(b *testing.B) *workload.Dataset {
		ds, err := workload.Build(workload.Config{
			Seed: 5, Birds: 100, AvgAnnotationsPerBird: 10,
			SkipSynonyms: true, LongAnnotationFraction: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	run := func(b *testing.B, ds *workload.Dataset) {
		rng := rand.New(rand.NewSource(7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ds.AddAnnotations(rng, rng.Intn(len(ds.Birds)), 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("NoIndex", func(b *testing.B) {
		run(b, build(b))
	})
	b.Run("SummaryBTree", func(b *testing.B) {
		ds := build(b)
		if err := ds.DB.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			b.Fatal(err)
		}
		run(b, ds)
	})
	b.Run("Baseline", func(b *testing.B) {
		ds := build(b)
		if err := ds.DB.CreateBaselineIndex("Birds", "ClassBird1"); err != nil {
			b.Fatal(err)
		}
		run(b, ds)
	})
}

// BenchmarkFig10_SelectionClassifier measures the SP query with a ~1%
// classifier equality predicate under the three access paths.
func BenchmarkFig10_SelectionClassifier(b *testing.B) {
	f := sharedFixture(b)
	q := diseaseEqQuery(f, 0.01, "")
	b.Run("NoIndex", func(b *testing.B) {
		benchQuery(b, f.db, q, &optimizer.Options{NoSummaryIndex: true})
	})
	b.Run("Baseline", func(b *testing.B) {
		benchQuery(b, f.db, q, &optimizer.Options{UseBaseline: true})
	})
	b.Run("SummaryBTree", func(b *testing.B) {
		benchQuery(b, f.db, q, nil)
	})
}

// BenchmarkFig11_TwoPredicates measures the classifier-range + snippet
// keyword-search query.
func BenchmarkFig11_TwoPredicates(b *testing.B) {
	f := sharedFixture(b)
	birds, _ := f.db.Table("Birds")
	lo := pickEq(birds, "ClassBird1", "Anatomy", 0.05)
	q := fmt.Sprintf(`SELECT * FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= %d
		AND r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') <= %d
		AND r.$.getSummaryObject('TextSummary1').containsUnion('stonewort')`, lo, lo+2)
	b.Run("NoIndex", func(b *testing.B) {
		benchQuery(b, f.db, q, &optimizer.Options{NoSummaryIndex: true})
	})
	b.Run("Baseline", func(b *testing.B) {
		benchQuery(b, f.db, q, &optimizer.Options{UseBaseline: true})
	})
	b.Run("SummaryBTree", func(b *testing.B) {
		benchQuery(b, f.db, q, nil)
	})
}

// BenchmarkFig12_DenormalizedPropagation compares propagation from the
// de-normalized storage against rebuilding from normalized rows.
func BenchmarkFig12_DenormalizedPropagation(b *testing.B) {
	f := sharedFixture(b)
	birds, _ := f.db.Table("Birds")
	lo := pickEq(birds, "ClassBird1", "Anatomy", 0.1)
	q := fmt.Sprintf(`SELECT * FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= %d
		AND r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') <= %d`, lo, lo+3)
	b.Run("BaselineRebuild", func(b *testing.B) {
		benchQuery(b, f.db, q, &optimizer.Options{UseBaseline: true, BaselineReconstruct: true})
	})
	b.Run("SummaryBTreeDenormalized", func(b *testing.B) {
		benchQuery(b, f.db, q, nil)
	})
}

// BenchmarkFig13_BackwardPointers ablates backward vs conventional leaf
// pointers, with and without summary propagation.
func BenchmarkFig13_BackwardPointers(b *testing.B) {
	f := sharedFixture(b)
	withProp := diseaseEqQuery(f, 0.05, "")
	noProp := diseaseEqQuery(f, 0.05, " WITHOUT SUMMARIES")
	b.Run("Backward-Propagation", func(b *testing.B) {
		benchQuery(b, f.db, withProp, nil)
	})
	b.Run("Backward-NoPropagation", func(b *testing.B) {
		benchQuery(b, f.db, noProp, nil)
	})
	b.Run("Conventional-Propagation", func(b *testing.B) {
		benchQuery(b, f.db, withProp, &optimizer.Options{ConventionalPointers: true})
	})
	b.Run("Conventional-NoPropagation", func(b *testing.B) {
		benchQuery(b, f.db, noProp, &optimizer.Options{ConventionalPointers: true})
	})
}

// BenchmarkFig14_Rules2and5 runs Example 4's join+selection+sort query
// with the transformation rules disabled and enabled across the four
// join/sort implementation combinations.
func BenchmarkFig14_Rules2and5(b *testing.B) {
	f := sharedFixture(b)
	q := `SELECT r.id FROM Birds r, Synonyms s
		WHERE r.id = s.bird_id
		AND r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') > 7
		ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`
	for _, jc := range []struct{ join, sort string }{
		{"nl", "mem"}, {"nl", "disk"}, {"index", "mem"}, {"index", "disk"},
	} {
		b.Run(fmt.Sprintf("Disabled-%s-%s", jc.join, jc.sort), func(b *testing.B) {
			benchQuery(b, f.db, q, &optimizer.Options{
				DisableRules: true, ForceJoin: jc.join, ForceSort: jc.sort, SortRunLen: 256})
		})
		b.Run(fmt.Sprintf("Enabled-%s-%s", jc.join, jc.sort), func(b *testing.B) {
			benchQuery(b, f.db, q, &optimizer.Options{ForceJoin: jc.join})
		})
	}
}

// BenchmarkFig15_Rule11 measures the data/summary join-order switch.
func BenchmarkFig15_Rule11(b *testing.B) {
	f := sharedFixture(b)
	q := `SELECT r.id FROM Birds r, Synonyms s, BirdsT t
	      WHERE t.id = r.id
	      AND (r.$.getSummaryObject('TextSummary1').containsUnion('ringed')
	        OR s.$.getSummaryObject('TextSummary1').containsUnion('ringed'))`
	b.Run("Disabled", func(b *testing.B) {
		benchQuery(b, f.db, q, &optimizer.Options{DisableRules: true})
	})
	b.Run("Enabled", func(b *testing.B) {
		benchQuery(b, f.db, q, nil)
	})
}

// BenchmarkFig16_CaseStudy measures the three case-study queries the
// extended system answers automatically (Figures 2 and 16).
func BenchmarkFig16_CaseStudy(b *testing.B) {
	f := sharedFixture(b)
	b.Run("Q1-SummarySort", func(b *testing.B) {
		benchQuery(b, f.db, `SELECT id FROM Birds r
			ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC
			LIMIT 100`, nil)
	})
	b.Run("Q2-VersionDiffJoin", func(b *testing.B) {
		benchQuery(b, f.db, `SELECT v1.id FROM Birds v1, BirdsV2 v2
			WHERE v1.id = v2.id
			AND v1.$.getSummaryObject('ClassBird1').getLabelValue('Disease')
			 <> v2.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`, nil)
	})
	b.Run("Q3-SummarySelection", func(b *testing.B) {
		benchQuery(b, f.db, diseaseEqQuery(f, 0.02, ""), nil)
	})
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

// BenchmarkAblation_JoinImplementations compares the three data-join
// implementations on the same Birds ⋈ Synonyms query — an ablation for
// the "more implementation choices" extension (the paper ships NL and
// index joins; hash join is this reproduction's addition).
func BenchmarkAblation_JoinImplementations(b *testing.B) {
	f := sharedFixture(b)
	q := `SELECT r.id FROM Birds r, Synonyms s WHERE r.id = s.bird_id AND r.id < 50`
	for _, impl := range []string{"nl", "hash", "index"} {
		b.Run(impl, func(b *testing.B) {
			benchQuery(b, f.db, q, &optimizer.Options{ForceJoin: impl})
		})
	}
}

// BenchmarkAblation_DemandDrivenPropagation measures what demand-driven
// summary attachment saves: the same index-answered query with the
// output propagating summaries vs not (DESIGN.md decision 3).
func BenchmarkAblation_DemandDrivenPropagation(b *testing.B) {
	f := sharedFixture(b)
	b.Run("WithSummaries", func(b *testing.B) {
		benchQuery(b, f.db, diseaseEqQuery(f, 0.05, ""), nil)
	})
	b.Run("WithoutSummaries", func(b *testing.B) {
		benchQuery(b, f.db, diseaseEqQuery(f, 0.05, " WITHOUT SUMMARIES"), nil)
	})
}

// allocFixture builds the warm single-table dataset for the
// vectorization allocation measurements: a plan cache so QueryCached
// skips parse/optimize, and no synonyms or long annotations so the
// scan-heavy query is the entire cost.
func allocFixture(tb testing.TB) *engine.DB {
	tb.Helper()
	ds, err := workload.Build(workload.Config{
		Seed: 1, Birds: 1000, AvgAnnotationsPerBird: 2,
		SkipSynonyms: true, LongAnnotationFraction: -1,
		PlanCacheSize: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ds.DB
}

const allocQuery = `SELECT id, sci_name FROM Birds b WHERE b.id > 0 WITHOUT SUMMARIES`

// BenchmarkVectorizedScanAllocs reports the allocation profile of a
// warm scan->filter->project query at batch capacity 1 vs 1024
// (compare allocs/op between the two).
func BenchmarkVectorizedScanAllocs(b *testing.B) {
	db := allocFixture(b)
	run := func(size int) func(*testing.B) {
		opts := &optimizer.Options{MaxBatchSize: size}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryCached(allocQuery, nil, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("Capacity1", run(1))
	b.Run("Capacity1024", run(1024))
}

// TestVectorizedAllocBudget is the regression guard on the executor's
// allocation discipline: slab-carved rows and pooled batch containers
// must keep a warm scan at capacity 1024 under 1 allocation per output
// row, and strictly cheaper than the same cached plan at capacity 1. A
// per-row allocation sneaking into an operator (row boxing, per-row
// alias maps, unpooled containers) trips this immediately.
func TestVectorizedAllocBudget(t *testing.T) {
	db := allocFixture(t)
	measure := func(size int) (allocsPerRow float64) {
		opts := &optimizer.Options{MaxBatchSize: size}
		res, err := db.QueryCached(allocQuery, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := len(res.Rows)
		if rows != 1000 {
			t.Fatalf("fixture drift: %d rows, want 1000", rows)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := db.QueryCached(allocQuery, nil, opts); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(rows)
	}
	single := measure(1)
	batch := measure(1024)
	if batch >= 1.0 {
		t.Errorf("capacity 1024 allocates %.2f/row, budget is < 1", batch)
	}
	if batch >= single {
		t.Errorf("capacity 1024 (%.2f allocs/row) not cheaper than capacity 1 (%.2f)", batch, single)
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

// BenchmarkReport_Quick regenerates the full figure set at the quick
// scale once per iteration — an end-to-end harness benchmark (run with
// -benchtime=1x; it is skipped in -short mode).
func BenchmarkReport_Quick(b *testing.B) {
	if testing.Short() {
		b.Skip("full report generation skipped in -short mode")
	}
	for i := 0; i < b.N; i++ {
		h := bench.NewHarness(bench.Scale{
			Birds: 80, AnnGrid: []int{10, 25}, SynonymsPerBird: 5, Seed: 1,
		})
		if _, err := bench.AllFigures(h); err != nil {
			b.Fatal(err)
		}
	}
}
