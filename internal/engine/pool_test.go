package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/pager"
)

// poolTestQueries exercise every access path: summary-index descent,
// full scans with propagation, aggregation, and a join.
var poolTestQueries = []string{
	`SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2`,
	`SELECT id, name FROM Birds b WHERE b.family = 'Corvidae'`,
	`SELECT family, count(*), max(id) FROM Birds b GROUP BY family`,
	`SELECT r.id, s.id FROM Birds r, Birds s WHERE r.family = s.family AND r.id < 4`,
}

// TestPoolOnOffIdentity builds the same dataset with and without a
// buffer pool and asserts every query charges identical LOGICAL I/O —
// the pool may only change physical traffic. (That the rows and summary
// sets agree is TestVectorizedDifferential's pool cell.)
// The rendering gates follow: pool-off EXPLAIN ANALYZE must not mention
// buffers or cache, pool-on must.
func TestPoolOnOffIdentity(t *testing.T) {
	plain, _ := testDB(t, 40)
	pooled, _ := testDBWithConfig(t, 40, Config{PageCap: 16, BufferPoolPages: pager.MinPoolFrames})
	if plain.BufferPool() != nil || pooled.BufferPool() == nil {
		t.Fatal("pool attachment wrong way around")
	}
	if err := plain.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	if err := pooled.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	for _, q := range poolTestQueries {
		pb := plain.Accountant().Stats()
		qb := pooled.Accountant().Stats()
		if _, err := plain.Query(q, nil); err != nil {
			t.Fatalf("plain %s: %v", q, err)
		}
		if _, err := pooled.Query(q, nil); err != nil {
			t.Fatalf("pooled %s: %v", q, err)
		}
		pd := plain.Accountant().Stats().Sub(pb)
		qd := pooled.Accountant().Stats().Sub(qb)
		if pd.PageReads != qd.PageReads || pd.PageWrites != qd.PageWrites ||
			pd.NodeReads != qd.NodeReads || pd.NodeWrites != qd.NodeWrites {
			t.Fatalf("%s: logical I/O diverges:\nplain  %+v\npooled %+v", q, pd, qd)
		}
		if pd.CacheAccesses() != 0 {
			t.Fatalf("%s: pool-off run produced cache traffic: %+v", q, pd)
		}
		if qd.CacheAccesses() == 0 {
			t.Fatalf("%s: pool-on run produced no cache traffic", q)
		}
	}
	// Rendering gates.
	ap, err := plain.ExplainAnalyze(poolTestQueries[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := ap.String(); strings.Contains(s, "buffers") || strings.Contains(s, "cache=") {
		t.Fatalf("pool-off EXPLAIN ANALYZE mentions the cache:\n%s", s)
	}
	if s := plain.Metrics().String(); strings.Contains(s, "cache:") {
		t.Fatalf("pool-off metrics mention the cache:\n%s", s)
	}
	aq, err := pooled.ExplainAnalyze(poolTestQueries[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := aq.String(); !strings.Contains(s, "cache=hit=") {
		t.Fatalf("pool-on EXPLAIN ANALYZE footer lacks cache info:\n%s", s)
	}
	if s := pooled.Metrics().String(); !strings.Contains(s, "cache: hit=") {
		t.Fatalf("pool-on metrics lack the cache line:\n%s", s)
	}
}

// TestPoolWarmRunCutsPhysicalReads is the headline claim: at a pool at
// least as large as the working set, a warm run of the selection query
// pays >= 10x fewer physical reads than a cold one, while logical reads
// stay identical.
func TestPoolWarmRunCutsPhysicalReads(t *testing.T) {
	db, _ := testDBWithConfig(t, 60, Config{PageCap: 8, BufferPoolPages: 512})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := poolTestQueries[1]
	run := func() pager.Stats {
		before := db.Accountant().Stats()
		if _, err := db.Query(q, nil); err != nil {
			t.Fatal(err)
		}
		return db.Accountant().Stats().Sub(before)
	}
	db.BufferPool().EvictAll()
	cold := run()
	warm := run()
	if cold.PhysReads == 0 {
		t.Fatalf("cold run paid no physical reads: %+v", cold)
	}
	if cold.PageReads != warm.PageReads {
		t.Fatalf("logical reads diverge cold/warm: %d/%d", cold.PageReads, warm.PageReads)
	}
	minWarm := warm.PhysReads
	if minWarm == 0 {
		minWarm = 1
	}
	if cold.PhysReads < 10*minWarm {
		t.Fatalf("warm reduction %d/%d < 10x", cold.PhysReads, warm.PhysReads)
	}
	if st := db.BufferPool().Stats(); st.MaxResident > st.Frames {
		t.Fatalf("residency exceeded budget: %+v", st)
	}
}

// TestFaultRecoveryWithSmallPool extends the P4/P6 fault-recovery tests
// to an adversarially small frame budget: the working set does not fit,
// so queries continuously evict — including write-backs of pages the
// index build dirtied, which makes the write policy fire during reads.
// Faults must stay typed, the pool must stay consistent, and with the
// policy lifted the structures must satisfy P4 and P6.
func TestFaultRecoveryWithSmallPool(t *testing.T) {
	for _, policy := range []*pager.FaultPolicy{
		{EveryKthRead: 11},
		{EveryKthWrite: 7},
		{FailFirstReads: 2, EveryKthWrite: 13},
	} {
		db, _ := testDBWithConfig(t, 60, Config{PageCap: 8, BufferPoolPages: pager.MinPoolFrames})
		if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			t.Fatal(err)
		}
		q := poolTestQueries[0]
		db.Accountant().SetFaultPolicy(policy)
		faulted := 0
		for i := 0; i < 15; i++ {
			_, err := db.Query(q, nil)
			if err == nil {
				continue
			}
			var fe *pager.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("policy %+v, iteration %d: fault surfaced untyped: %v", policy, i, err)
			}
			faulted++
		}
		if faulted == 0 {
			t.Fatalf("policy %+v never fired across 15 eviction-churning queries", policy)
		}
		db.Accountant().SetFaultPolicy(nil)

		// P6: index structure intact despite mid-eviction faults.
		if err := db.SummaryIndex("Birds", "ClassBird1").Tree().Validate(); err != nil {
			t.Fatalf("policy %+v: P6 violated: %v", policy, err)
		}
		// P4: index and brute-force scan agree.
		withIdx, err := db.Query(q, nil)
		if err != nil {
			t.Fatalf("policy %+v: post-fault query: %v", policy, err)
		}
		noIdx, err := db.Query(q, &optimizer.Options{NoSummaryIndex: true})
		if err != nil {
			t.Fatalf("policy %+v: post-fault scan: %v", policy, err)
		}
		if len(withIdx.Rows) != len(noIdx.Rows) {
			t.Fatalf("policy %+v: P4 violated: index %d rows, scan %d",
				policy, len(withIdx.Rows), len(noIdx.Rows))
		}
		if st := db.BufferPool().Stats(); st.MaxResident > st.Frames {
			t.Fatalf("policy %+v: residency exceeded budget: %+v", policy, st)
		}
	}
}

// TestParallelScanSharedPool runs parallel-plan queries from several
// goroutines against one shared pool while a writer churns annotations —
// the -race leg of the satellite. Parallel scan workers pin frames
// independently; the pool's lock must keep hit/miss/eviction transitions
// coherent.
func TestParallelScanSharedPool(t *testing.T) {
	db, oids := testDBWithConfig(t, 48, Config{PageCap: 16, BufferPoolPages: 64})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	db.SetMaxParallelWorkers(4)
	queries := []string{
		`SELECT family, count(*), min(id), max(id) FROM Birds b GROUP BY family`,
		`SELECT id FROM Birds b WHERE b.family = 'Corvidae'`,
		`SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 1`,
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var errs errCollector
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(w+i)%len(queries)]
				if _, err := db.Query(q, nil); err != nil {
					errs.add(fmt.Errorf("pooled reader %d: %w", w, err))
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 60; i++ {
			if _, err := db.AddAnnotation("Birds", oids[i%len(oids)],
				annText("Disease", i), nil, "writer"); err != nil {
				errs.add(fmt.Errorf("writer add: %w", err))
				return
			}
			if i%15 == 0 {
				if _, err := db.Insert("Birds", model.NewInt(int64(3000+i)),
					model.NewText("new"), model.NewText("Corvidae")); err != nil {
					errs.add(fmt.Errorf("writer insert: %w", err))
					return
				}
			}
		}
	}()
	wg.Wait()
	errs.report(t)
	// Quiesced: parallel and serial agree, pool stayed within budget.
	for _, q := range queries {
		par, err := db.Query(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := db.Query(q, &optimizer.Options{MaxParallelWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(par.Rows) != len(ser.Rows) {
			t.Fatalf("%s: parallel %d rows, serial %d", q, len(par.Rows), len(ser.Rows))
		}
	}
	if st := db.BufferPool().Stats(); st.MaxResident > st.Frames {
		t.Fatalf("residency exceeded budget: %+v", st)
	}
	if err := db.SummaryIndex("Birds", "ClassBird1").Tree().Validate(); err != nil {
		t.Fatalf("P6 violated after shared-pool stress: %v", err)
	}
}
