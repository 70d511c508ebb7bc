package engine

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/plan"
)

// TestPlanCacheAlwaysOn: a database built from a zero Config caches
// plans — there is no cache-off mode — at the served capacity of 256.
func TestPlanCacheAlwaysOn(t *testing.T) {
	db := New(Config{})
	if _, err := db.CreateTable("T", model.NewSchema("", model.Column{Name: "id", Kind: model.KindInt})); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`SELECT id FROM T WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	params := []model.Value{model.NewInt(1)}
	for i, want := range []bool{false, true} {
		res, err := st.Execute(params, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.CachedPlan != want {
			t.Fatalf("execution %d: CachedPlan = %v, want %v", i+1, res.CachedPlan, want)
		}
	}
	if pc := db.Metrics().PlanCache; pc == nil || pc.Capacity != 256 {
		t.Fatalf("Metrics().PlanCache = %+v, want capacity 256", pc)
	}
}

func TestPreparedPlanCacheHits(t *testing.T) {
	db, _ := testDB(t, 20)
	st, err := db.Prepare(`SELECT id FROM Birds r
	                       WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?`)
	if err != nil {
		t.Fatal(err)
	}
	params := []model.Value{model.NewInt(2)}
	first, err := st.Execute(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.CachedPlan {
		t.Fatal("first execution reported a cached plan")
	}
	second, err := st.Execute(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CachedPlan {
		t.Fatal("second execution with identical params missed the plan cache")
	}
	// A distinct constant is a distinct custom plan: its own slot.
	third, err := st.Execute([]model.Value{model.NewInt(3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.CachedPlan {
		t.Fatal("different constant unexpectedly hit the cache")
	}
	// Text that normalizes equal is the same statement: a second Prepare
	// of it, spaced and cased differently, shares the first one's plan.
	again, err := db.Prepare(`select  id  from Birds r
	                          where r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') =  ?`)
	if err != nil {
		t.Fatal(err)
	}
	fourth, err := again.Execute(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fourth.CachedPlan || len(fourth.Rows) != len(first.Rows) {
		t.Fatalf("normalized repeat: cached=%v rows=%d, want a hit with %d rows",
			fourth.CachedPlan, len(fourth.Rows), len(first.Rows))
	}
	stats := db.PlanCacheStats()
	if stats.Hits != 2 || stats.Misses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 2/2", stats.Hits, stats.Misses)
	}
}

// TestQueryCachedReusesParsedStatement: the keyed statement path that
// POST /v1/query runs (Prepare + Execute) treats text equal modulo case
// and whitespace as one statement sharing one plan.
func TestQueryCachedReusesParsedStatement(t *testing.T) {
	db, _ := testDB(t, 15)
	p := []model.Value{model.NewText("Corvidae")}
	run := func(q string) *Result {
		t.Helper()
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Execute(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(`SELECT id FROM Birds WHERE family = ?`)
	second := run("select  id  from Birds where family = ?")
	if len(first.Rows) == 0 || len(first.Rows) != len(second.Rows) {
		t.Fatalf("rows %d vs %d", len(first.Rows), len(second.Rows))
	}
	if !second.CachedPlan {
		t.Fatal("normalized repeat missed the plan cache")
	}
}

func TestPrepareRejectsNonSelectAndArity(t *testing.T) {
	db, _ := testDB(t, 5)
	if _, err := db.Prepare("ALTER TABLE Birds ADD ClassBird1"); err == nil {
		t.Fatal("Prepare accepted DDL")
	}
	st, err := db.Prepare(`SELECT id FROM Birds WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Execute(nil, nil); err == nil {
		t.Fatal("Execute accepted zero params for a 1-param statement")
	}
	if _, err := st.Execute([]model.Value{model.NewInt(1), model.NewInt(2)}, nil); err == nil {
		t.Fatal("Execute accepted two params for a 1-param statement")
	}
	// An unbound placeholder must be rejected by planning, not crash it.
	if _, err := db.Query(`SELECT id FROM Birds WHERE id = ?`, nil); err == nil {
		t.Fatal("classic Query accepted an unbound placeholder")
	}
}

// TestPlanCacheStalenessOnIndexCreation is the staleness trap from the
// issue: a plan cached before CREATE SUMMARY INDEX chose a sequential
// scan; creating the index bumps the catalog version, so the next
// execution must re-plan onto the index rather than replay the stale
// skeleton.
func TestPlanCacheStalenessOnIndexCreation(t *testing.T) {
	db, _ := testDB(t, 40)
	st, err := db.Prepare(`SELECT id FROM Birds r
	                       WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?`)
	if err != nil {
		t.Fatal(err)
	}
	params := []model.Value{model.NewInt(2)}
	pre, err := st.Execute(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.Explain(pre.Plan), "SummaryBTreeScan") {
		t.Fatalf("plan uses an index before one exists:\n%s", plan.Explain(pre.Plan))
	}
	if res, err := st.Execute(params, nil); err != nil || !res.CachedPlan {
		t.Fatalf("warm execution: cached=%v err=%v", res != nil && res.CachedPlan, err)
	}

	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}

	post, err := st.Execute(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if post.CachedPlan {
		t.Fatal("stale pre-index plan survived CREATE SUMMARY INDEX")
	}
	if !strings.Contains(plan.Explain(post.Plan), "SummaryBTreeScan") {
		t.Fatalf("re-planned query does not use the new index:\n%s", plan.Explain(post.Plan))
	}
	if len(post.Rows) != len(pre.Rows) {
		t.Fatalf("index plan returned %d rows, seq scan returned %d", len(post.Rows), len(pre.Rows))
	}
	if inv := db.PlanCacheStats().Invalidations; inv < 1 {
		t.Fatalf("invalidations = %d, want >= 1", inv)
	}
}

// TestPlanCacheStalenessOnStatsRefresh covers the DDL-free half of the
// trap: RefreshStatistics must also invalidate cached plans.
func TestPlanCacheStalenessOnStatsRefresh(t *testing.T) {
	db, _ := testDB(t, 10)
	st, err := db.Prepare(`SELECT id FROM Birds WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	params := []model.Value{model.NewInt(3)}
	if _, err := st.Execute(params, nil); err != nil {
		t.Fatal(err)
	}
	if res, _ := st.Execute(params, nil); !res.CachedPlan {
		t.Fatal("warm execution missed the cache")
	}
	before := db.CatalogVersion()
	db.RefreshStatistics()
	if db.CatalogVersion() != before+1 {
		t.Fatalf("RefreshStatistics did not bump the catalog version")
	}
	res, err := st.Execute(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedPlan {
		t.Fatal("cached plan survived a statistics refresh")
	}
}

// TestMetricsSnapshotConsistency is the torn-snapshot regression:
// Metrics taken while 8 goroutines record concurrently must satisfy
// sum(LatencyCounts) == Queries on every snapshot (previously a reader
// could observe a statement's histogram bucket without its query count,
// or vice versa).
func TestMetricsSnapshotConsistency(t *testing.T) {
	db, _ := testDB(t, 12)
	st, err := db.Prepare(`SELECT id FROM Birds r
	                       WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?`)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			params := []model.Value{model.NewInt(int64(g%3 + 1))}
			for !stop.Load() {
				if _, err := st.Execute(params, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	snaps := 0
	for time.Now().Before(deadline) {
		m := db.Metrics()
		var sum int64
		for _, c := range m.LatencyCounts {
			sum += c
		}
		if sum != m.Queries {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("torn snapshot: histogram sums to %d, Queries = %d", sum, m.Queries)
		}
		snaps++
	}
	stop.Store(true)
	wg.Wait()
	if snaps == 0 {
		t.Fatal("no snapshots taken")
	}
	// Final quiesced snapshot agrees with itself too.
	m := db.Metrics()
	var sum int64
	for _, c := range m.LatencyCounts {
		sum += c
	}
	if sum != m.Queries || m.Queries == 0 {
		t.Fatalf("final snapshot: sum=%d queries=%d", sum, m.Queries)
	}
	if m.PlanCache == nil || m.PlanCache.Hits == 0 {
		t.Fatalf("plan cache saw no hits under the hammer: %+v", m.PlanCache)
	}
}

// TestPreparedConcurrentExecutions: one Stmt shared by many goroutines
// with distinct params; results must match the classic path throughout.
func TestPreparedConcurrentExecutions(t *testing.T) {
	db, _ := testDB(t, 25)
	st, err := db.Prepare(`SELECT id FROM Birds r
	                       WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int{}
	for d := int64(1); d <= 4; d++ {
		res, err := db.Query(strings.Replace(st.Text(), "?", model.NewInt(d).SQLLiteral(), 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[d] = len(res.Rows)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				d := int64((g+i)%4 + 1)
				res, err := st.Execute([]model.Value{model.NewInt(d)}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != want[d] {
					t.Errorf("param %d: got %d rows, want %d", d, len(res.Rows), want[d])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
