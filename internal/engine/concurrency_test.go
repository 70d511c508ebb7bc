package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/pager"
)

// errCollector gathers worker-goroutine failures without a capacity
// bound: a fixed-size error channel can fill (blocking workers) or —
// with a select/default sender — silently drop failures, turning a
// broken test green. The mutex-guarded slice always records everything.
type errCollector struct {
	mu   sync.Mutex
	errs []error
}

func (c *errCollector) add(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

// report fails the test with every collected error.
func (c *errCollector) report(t *testing.T) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, err := range c.errs {
		t.Error(err)
	}
}

// TestConcurrentQueriesAndWrites drives parallel readers (summary
// queries, zooms, explains) against a writer adding annotations and
// tuples. Run with -race to validate the locking discipline: queries
// share the lock, mutations are exclusive.
func TestConcurrentQueriesAndWrites(t *testing.T) {
	db, oids := testDB(t, 20)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var errs errCollector

	// Readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := []string{
				`SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2`,
				`SELECT family, count(*) FROM Birds GROUP BY family`,
				`SELECT id FROM Birds r ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT 5`,
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Query(queries[i%len(queries)], nil); err != nil {
					errs.add(fmt.Errorf("reader %d: %w", w, err))
					return
				}
				if i%7 == 0 {
					if _, err := db.ZoomIn("Birds", "ClassBird1", "Disease", "id <= 5"); err != nil {
						errs.add(fmt.Errorf("reader %d zoom: %w", w, err))
						return
					}
				}
			}
		}(w)
	}

	// Writer: annotations, new tuples, deletions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 150; i++ {
			if _, err := db.AddAnnotation("Birds", oids[i%len(oids)],
				annText("Disease", i), nil, "writer"); err != nil {
				errs.add(fmt.Errorf("writer add: %w", err))
				return
			}
			if i%25 == 0 {
				if _, err := db.Insert("Birds", model.NewInt(int64(1000+i)),
					model.NewText("new"), model.NewText("F")); err != nil {
					errs.add(fmt.Errorf("writer insert: %w", err))
					return
				}
			}
			if i%40 == 39 {
				anns := db.Annotations(oids[0])
				if len(anns) > 1 {
					if err := db.DeleteAnnotation("Birds", anns[0].ID); err != nil {
						errs.add(fmt.Errorf("writer delete: %w", err))
						return
					}
				}
			}
		}
	}()

	wg.Wait()
	errs.report(t)
}

// TestConcurrentCancellationAndFaults races read-only queries against
// random cancellation and fault-policy toggling. Every error a worker
// sees must be a context error, a typed fault, or a budget violation —
// never a panic — and afterwards the index invariants must hold:
// P4 (index and brute-force scans agree) and P6 (B+Tree validity).
// Run with -race.
func TestConcurrentCancellationAndFaults(t *testing.T) {
	db, _ := testDB(t, 20)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2`

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var errs errCollector

	// Query workers under randomized deadlines and budgets.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := []string{
				q,
				`SELECT family, count(*) FROM Birds GROUP BY family`,
				`SELECT r.id, s.id FROM Birds r, Birds s WHERE r.family = s.family ORDER BY r.id`,
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(1+(w+i)%40)*100*time.Microsecond)
				var opts *optimizer.Options
				if i%3 == 0 {
					opts = &optimizer.Options{Budget: exec.NewBudget(int64(10+i%50), 0, 1<<30)}
				}
				_, err := db.QueryContext(ctx, queries[i%len(queries)], opts)
				cancel()
				if err != nil &&
					!errors.Is(err, context.Canceled) &&
					!errors.Is(err, context.DeadlineExceeded) &&
					!errors.Is(err, exec.ErrBudgetExceeded) {
					var fe *pager.FaultError
					if !errors.As(err, &fe) {
						errs.add(fmt.Errorf("worker %d: unexpected error class: %w", w, err))
						return
					}
				}
			}
		}(w)
	}

	// Fault toggler: alternate deterministic read-fault policies with
	// latency-only ones while queries run (DML stays quiet during the
	// fault phase).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 60; i++ {
			db.Accountant().SetFaultPolicy(&pager.FaultPolicy{EveryKthRead: 11 + i%7})
			time.Sleep(500 * time.Microsecond)
			db.Accountant().SetFaultPolicy(&pager.FaultPolicy{Latency: time.Duration(i%3) * 50 * time.Microsecond})
			time.Sleep(300 * time.Microsecond)
		}
		db.Accountant().SetFaultPolicy(nil)
	}()

	wg.Wait()
	errs.report(t)

	// Invariants after the storm.
	if err := db.SummaryIndex("Birds", "ClassBird1").Tree().Validate(); err != nil {
		t.Fatalf("P6 violated: %v", err)
	}
	withIdx, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := db.Query(q, &optimizer.Options{NoSummaryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(withIdx.Rows) != len(noIdx.Rows) {
		t.Fatalf("P4 violated: index %d rows, scan %d rows", len(withIdx.Rows), len(noIdx.Rows))
	}
}

// TestConcurrentParallelQueriesAndWrites extends the reader/writer
// storm with intra-query parallelism: every reader plans with a worker
// cap of 4, so parallel scans, partial aggregations, and parallel hash
// builds run inside queries that already share the DB lock with a
// mutating writer — worker goroutines must never observe a torn page
// or leak past their query. Once the writer finishes, every query's
// parallel result is compared row-for-row against its serial plan.
// Run with -race.
func TestConcurrentParallelQueriesAndWrites(t *testing.T) {
	// 3 data pages at PageCap 16 -> DOP 3 plans
	db, oids := testDBWithConfig(t, 48, Config{PageCap: 16, MaxParallelWorkers: 4})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}

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
					errs.add(fmt.Errorf("parallel reader %d: %w", w, err))
					return
				}
				// Occasionally run with an explicit serial cap too, so
				// both plan shapes interleave with the writer.
				if i%5 == 0 {
					if _, err := db.Query(q, &optimizer.Options{MaxParallelWorkers: 1}); err != nil {
						errs.add(fmt.Errorf("serial reader %d: %w", w, err))
						return
					}
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 120; i++ {
			if _, err := db.AddAnnotation("Birds", oids[i%len(oids)],
				annText("Disease", i), nil, "writer"); err != nil {
				errs.add(fmt.Errorf("writer add: %w", err))
				return
			}
			if i%20 == 0 {
				if _, err := db.Insert("Birds", model.NewInt(int64(2000+i)),
					model.NewText("new"), model.NewText("Corvidae")); err != nil {
					errs.add(fmt.Errorf("writer insert: %w", err))
					return
				}
			}
		}
	}()

	wg.Wait()
	errs.report(t)

	// Quiesced: the parallel and serial plans of every query must agree
	// exactly, and the engine must have actually planned both shapes.
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
		for i := range par.Rows {
			if par.Rows[i].Tuple.String() != ser.Rows[i].Tuple.String() {
				t.Fatalf("%s: row %d differs", q, i)
			}
		}
	}
	m := db.Metrics()
	if m.ParallelPlans == 0 || m.SerialPlans == 0 {
		t.Fatalf("plan-shape metrics: parallel=%d serial=%d", m.ParallelPlans, m.SerialPlans)
	}
}
