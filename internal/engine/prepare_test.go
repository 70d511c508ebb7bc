package engine

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// cachedTestDB is testDB with the plan cache enabled; the embedded API
// tests elsewhere run with PlanCacheSize 0 and never see any of this.
func cachedTestDB(t *testing.T, nBirds int) (*DB, []int64) {
	t.Helper()
	return testDBWithConfig(t, nBirds, Config{PageCap: 16, PlanCacheSize: 64})
}

func TestPreparedPlanCacheHits(t *testing.T) {
	db, _ := cachedTestDB(t, 20)
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
	stats := db.PlanCacheStats()
	if stats.Hits != 1 || stats.Misses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 1/2", stats.Hits, stats.Misses)
	}
}

func TestQueryCachedReusesParsedStatement(t *testing.T) {
	db, _ := cachedTestDB(t, 15)
	const q = `SELECT id FROM Birds WHERE family = ?`
	p := []model.Value{model.NewText("Corvidae")}
	first, err := db.QueryCached(q, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same text modulo case/whitespace shares the statement and the plan.
	second, err := db.QueryCached("select  id  from Birds where family = ?", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) == 0 || len(first.Rows) != len(second.Rows) {
		t.Fatalf("rows %d vs %d", len(first.Rows), len(second.Rows))
	}
	if !second.CachedPlan {
		t.Fatal("normalized repeat missed the plan cache")
	}
}

func TestPrepareRejectsNonSelectAndArity(t *testing.T) {
	db, _ := cachedTestDB(t, 5)
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
	db, _ := cachedTestDB(t, 40)
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
	db, _ := cachedTestDB(t, 10)
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

// TestIngestFlusherJoinedOnClose is the lifecycle regression from the
// issue: Close must join the IngestFlushInterval ticker goroutine, not
// merely signal it. Before the done-channel join the goroutine could
// still be inside flushIfDirty when Close returned.
func TestIngestFlusherJoinedOnClose(t *testing.T) {
	db, oids := testDBWithConfig(t, 8, Config{
		PageCap:             16,
		IngestFlushOps:      1000, // interval, not threshold, drives flushes
		IngestFlushInterval: time.Millisecond,
	})
	if db.ingestDone == nil {
		t.Fatal("New with IngestFlushInterval did not start the flush loop")
	}
	mustAnnotate(t, db, oids[0], annText("Disease", 99))
	db.Close()
	select {
	case <-db.ingestDone:
	default:
		t.Fatal("Close returned without joining the ingest flush loop goroutine")
	}
	// Close is idempotent with the flush loop already torn down.
	db.Close()
}

// TestLoadStartsIngestFlusher: a snapshot-loaded DB silently ignored
// IngestFlushInterval before the LoadWithConfig fix.
func TestLoadStartsIngestFlusher(t *testing.T) {
	src, _ := testDB(t, 6)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := LoadWithConfig(&buf, Config{
		IngestFlushOps:      1000,
		IngestFlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.ingestDone == nil {
		t.Fatal("LoadWithConfig did not start the interval flush loop")
	}
	oid, err := db.Insert("Birds",
		model.NewInt(1000), model.NewText("Late"), model.NewText("Anatidae"))
	if err != nil {
		t.Fatal(err)
	}
	mustAnnotate(t, db, oid, annText("Disease", 0))
	// The timer alone must drain the buffer — no read or explicit flush.
	deadline := time.Now().Add(5 * time.Second)
	for db.ingestDirty.Load() {
		if time.Now().After(deadline) {
			t.Fatal("interval flush loop never drained the buffer")
		}
		time.Sleep(time.Millisecond)
	}
	db.Close()
	select {
	case <-db.ingestDone:
	default:
		t.Fatal("Close returned without joining the Load-started flush loop")
	}
}

// TestIngestFlusherOpenCloseStress opens and closes interval-flushing
// databases in a tight loop while annotating; under -race this flushes
// out any flush racing the teardown.
func TestIngestFlusherOpenCloseStress(t *testing.T) {
	for i := 0; i < 20; i++ {
		db, oids := testDBWithConfig(t, 4, Config{
			PageCap:             16,
			IngestFlushOps:      1000,
			IngestFlushInterval: 100 * time.Microsecond,
		})
		for j := 0; j < 5; j++ {
			mustAnnotate(t, db, oids[j%len(oids)], annText("Behavior", j))
		}
		db.Close()
		select {
		case <-db.ingestDone:
		default:
			t.Fatalf("iteration %d: flush loop not joined", i)
		}
	}
}

// TestMetricsSnapshotConsistency is the torn-snapshot regression:
// Metrics taken while 8 goroutines record concurrently must satisfy
// sum(LatencyCounts) == Queries on every snapshot (previously a reader
// could observe a statement's histogram bucket without its query count,
// or vice versa).
func TestMetricsSnapshotConsistency(t *testing.T) {
	db, _ := cachedTestDB(t, 12)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			params := []model.Value{model.NewInt(int64(g%3 + 1))}
			for !stop.Load() {
				if _, err := db.QueryCached(
					`SELECT id FROM Birds r
					 WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?`,
					params, nil); err != nil {
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
	db, _ := cachedTestDB(t, 25)
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

// TestPlanCacheDisabledPathsUnchanged: with PlanCacheSize 0 the
// prepared API still works (through the classic path) and the metrics
// carry no plan-cache section — cache-off snapshots are unchanged.
func TestPlanCacheDisabledPathsUnchanged(t *testing.T) {
	db, _ := testDB(t, 10)
	st, err := db.Prepare(`SELECT id FROM Birds WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Execute([]model.Value{model.NewInt(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedPlan {
		t.Fatal("CachedPlan set with caching disabled")
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if m := db.Metrics(); m.PlanCache != nil {
		t.Fatal("cache-off Metrics grew a PlanCache section")
	}
	var zero optimizer.PlanCacheStats
	if db.PlanCacheStats() != zero {
		t.Fatal("PlanCacheStats not zero with caching disabled")
	}
}
