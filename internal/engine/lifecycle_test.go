package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/pager"
)

// isolateSpillDir points os.TempDir at a directory private to the test,
// so the spill-file counts below never see the files of test binaries
// running concurrently (go test runs packages in parallel, and they
// share the system temp directory).
func isolateSpillDir(t *testing.T) { t.Setenv("TMPDIR", t.TempDir()) }

// leftoverSortRuns counts spill files in the temp directory.
func leftoverSortRuns(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "insightnotes-sortrun-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// slowJoinQuery is a sort-over-join pipeline large enough to observe
// cancellation mid-flight.
const slowJoinQuery = `SELECT r.id, s.id FROM Birds r, Birds s WHERE r.family = s.family ORDER BY r.id`

func TestQueryContextPreCancelled(t *testing.T) {
	db, _ := testDB(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	isolateSpillDir(t)
	before := leftoverSortRuns(t)
	_, err := db.QueryContext(ctx, slowJoinQuery, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if after := leftoverSortRuns(t); after != before {
		t.Fatalf("cancelled query leaked temp files: %d -> %d", before, after)
	}
	// The shared lock must be released: an exclusive-lock operation and a
	// fresh query both succeed.
	if _, err := db.AddAnnotation("Birds", 1, annText("Behavior", 99), nil, "post"); err != nil {
		t.Fatalf("DB unusable after cancellation (write): %v", err)
	}
	if _, err := db.Query(`SELECT id FROM Birds LIMIT 1`, nil); err != nil {
		t.Fatalf("DB unusable after cancellation (read): %v", err)
	}
}

func TestQueryContextCancelMidFlight(t *testing.T) {
	db, _ := testDB(t, 25)
	// Slow every page read so the join cannot finish before the cancel.
	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{Latency: 200 * time.Microsecond})
	defer db.Accountant().SetFaultPolicy(nil)
	isolateSpillDir(t)
	before := leftoverSortRuns(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.QueryContext(ctx, slowJoinQuery,
		&optimizer.Options{ForceSort: "disk", SortRunLen: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (after %v)", err, time.Since(start))
	}
	if after := leftoverSortRuns(t); after != before {
		t.Fatalf("cancelled query leaked temp files: %d -> %d", before, after)
	}
	if _, err := db.AddAnnotation("Birds", 1, annText("Behavior", 98), nil, "post"); err != nil {
		t.Fatalf("lock not released after cancellation: %v", err)
	}
}

func TestQueryContextDeadline(t *testing.T) {
	db, _ := testDB(t, 25)
	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{Latency: 200 * time.Microsecond})
	defer db.Accountant().SetFaultPolicy(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, slowJoinQuery, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestStatementTimeout(t *testing.T) {
	db, _ := testDBWithConfig(t, 25, Config{PageCap: 16, StatementTimeout: 3 * time.Millisecond})
	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{Latency: 200 * time.Microsecond})
	defer db.Accountant().SetFaultPolicy(nil)
	// Plain Query (no caller context) must still observe the timeout.
	_, err := db.Query(slowJoinQuery, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	// An explicit caller deadline wins over the default.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	db.Accountant().SetFaultPolicy(nil)
	if _, err := db.QueryContext(ctx, `SELECT id FROM Birds LIMIT 1`, nil); err != nil {
		t.Fatalf("query under long explicit deadline failed: %v", err)
	}
}

// TestBudgetHashJoinVsSortSpill is the governor's contract: the same
// query over a budget smaller than the hash build side fails fast under
// the hash plan, while sort-based plans complete by spilling within the
// temp-file allowance.
func TestBudgetHashJoinVsSortSpill(t *testing.T) {
	db, _ := testDB(t, 30)
	tight := exec.NewBudget(20, 0, 1<<30) // < 30 build rows, ample spill

	_, err := db.Query(slowJoinQuery, &optimizer.Options{ForceJoin: "hash", Budget: tight})
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("hash join under tight budget: want ErrBudgetExceeded, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Op != "HashJoin" {
		t.Fatalf("want QueryError naming HashJoin, got %v", err)
	}
	if qe.Fragment == "" {
		t.Fatal("QueryError should carry the plan fragment")
	}

	isolateSpillDir(t)
	before := leftoverSortRuns(t)
	res, err := db.Query(slowJoinQuery,
		&optimizer.Options{ForceJoin: "nl", ForceSort: "disk", SortRunLen: 16, Budget: tight})
	if err != nil {
		t.Fatalf("sort-based plan should complete by spilling: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("join produced no rows")
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Tuple.Values[0].Int > res.Rows[i].Tuple.Values[0].Int {
			t.Fatalf("spilled sort output out of order at %d", i)
		}
	}
	if after := leftoverSortRuns(t); after != before {
		t.Fatalf("spilling query leaked temp files: %d -> %d", before, after)
	}
}

func TestDefaultBudgetApplies(t *testing.T) {
	db, _ := testDBWithConfig(t, 30, Config{PageCap: 16, Budget: exec.NewBudget(5, 0, 0)})
	// DISTINCT retains all 30 ids and cannot degrade: the breaker trips.
	_, err := db.Query(`SELECT DISTINCT id FROM Birds`, nil)
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded under default budget, got %v", err)
	}
	// A per-query budget overrides the default.
	if _, err := db.Query(`SELECT DISTINCT id FROM Birds`, &optimizer.Options{Budget: exec.NewBudget(0, 0, 0)}); err != nil {
		t.Fatalf("unlimited per-query budget, got %v", err)
	}
}

// dbFingerprint captures externally observable catalog/statistics state
// for the no-mutation property.
func dbFingerprint(t *testing.T, db *DB) string {
	t.Helper()
	tbl, err := db.Table("Birds")
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("tuples=%d anns=%d", tbl.Len(), db.AnnotationCount())
	for _, si := range tbl.Instances {
		fp += fmt.Sprintf(";%s=%s", si.Name, tbl.Stats(si.Name))
	}
	return fp
}

// TestCancelledQueryNeverMutates: a cancelled query must leave catalog
// contents and summary statistics untouched, whatever moment the cancel
// lands at.
func TestCancelledQueryNeverMutates(t *testing.T) {
	db, _ := testDB(t, 15)
	before := dbFingerprint(t, db)
	for trial := 0; trial < 8; trial++ {
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(trial)*500*time.Microsecond)
		_, err := db.QueryContext(ctx, slowJoinQuery, nil)
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
		if got := dbFingerprint(t, db); got != before {
			t.Fatalf("trial %d: cancelled query mutated state:\n before %s\n after  %s",
				trial, before, got)
		}
	}
}

// TestFaultInjectionTypedErrors: deterministic every-Kth read faults
// must surface as typed errors (never a panic), and once the policy is
// lifted the structures still satisfy P4 (index agrees with brute
// force) and P6 (B+Tree validity).
func TestFaultInjectionTypedErrors(t *testing.T) {
	db, _ := testDB(t, 20)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id FROM Birds r WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 2`

	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{EveryKthRead: 7})
	var faulted int
	for i := 0; i < 12; i++ {
		_, err := db.Query(q, nil)
		if err == nil {
			continue
		}
		var fe *pager.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("iteration %d: fault surfaced untyped: %v", i, err)
		}
		faulted++
	}
	if faulted == 0 {
		t.Fatal("every-7th-read policy never fired across 12 queries")
	}
	db.Accountant().SetFaultPolicy(nil)

	// P6: B+Tree structural invariants hold after the faulty runs.
	if err := db.SummaryIndex("Birds", "ClassBird1").Tree().Validate(); err != nil {
		t.Fatalf("P6 violated after faults: %v", err)
	}
	// P4: the index access path agrees with the brute-force scan.
	withIdx, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	noIdx, err := db.Query(q, &optimizer.Options{NoSummaryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := func(r *Result) map[int64]bool {
		m := map[int64]bool{}
		for _, row := range r.Rows {
			m[row.Tuple.Values[0].Int] = true
		}
		return m
	}
	wi, ni := ids(withIdx), ids(noIdx)
	if len(wi) != len(ni) {
		t.Fatalf("P4 violated: index %d ids, scan %d ids", len(wi), len(ni))
	}
	for id := range ni {
		if !wi[id] {
			t.Fatalf("P4 violated: id %d found by scan but not by index", id)
		}
	}
}

func TestZoomUnderFaultsIsTyped(t *testing.T) {
	db, _ := testDB(t, 10)
	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{EveryKthRead: 5})
	defer db.Accountant().SetFaultPolicy(nil)
	for i := 0; i < 6; i++ {
		_, err := db.ZoomIn("Birds", "ClassBird1", "Disease", "id <= 5")
		if err == nil {
			continue
		}
		var fe *pager.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("zoom fault surfaced untyped: %v", err)
		}
	}
}

func TestSnapshotSaveRetriesTransientFaults(t *testing.T) {
	db, _ := testDB(t, 10)
	wantAnns := db.AnnotationCount()

	// Transient: the first 3 reads fault; SnapshotRetry's 5 attempts ride
	// through the window.
	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{FailFirstReads: 3})
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save should absorb transient faults: %v", err)
	}
	db.Accountant().SetFaultPolicy(nil)

	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.AnnotationCount(); got != wantAnns {
		t.Fatalf("round trip annotations: want %d, got %d", wantAnns, got)
	}
}

func TestSnapshotSaveGivesUpOnPersistentFaults(t *testing.T) {
	db, _ := testDB(t, 5)
	db.Accountant().SetFaultPolicy(&pager.FaultPolicy{EveryKthRead: 1})
	var buf bytes.Buffer
	err := db.Save(&buf)
	var fe *pager.FaultError
	if err == nil || !errors.As(err, &fe) {
		t.Fatalf("persistent faults: want typed failure after bounded retries, got %v", err)
	}
	// The DB is unharmed: lifting the policy makes Save work.
	db.Accountant().SetFaultPolicy(nil)
	buf.Reset()
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save after lifting the policy: %v", err)
	}
}

func TestLoadWithConfigRetriesWriteFaults(t *testing.T) {
	db, _ := testDB(t, 8)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snapBytes := buf.Bytes()

	// Transient write faults during replay: retried, same accountant, so
	// the FailFirst window is consumed across attempts.
	db2, err := LoadWithConfig(bytes.NewReader(snapBytes),
		Config{Faults: &pager.FaultPolicy{FailFirstWrites: 3}})
	if err != nil {
		t.Fatalf("Load should absorb transient write faults: %v", err)
	}
	if got, want := db2.AnnotationCount(), db.AnnotationCount(); got != want {
		t.Fatalf("round trip annotations: want %d, got %d", want, got)
	}

	// Persistent write faults: bounded failure, not a hang or panic.
	_, err = LoadWithConfig(bytes.NewReader(snapBytes),
		Config{Faults: &pager.FaultPolicy{EveryKthWrite: 1}})
	var fe *pager.FaultError
	if err == nil || !errors.As(err, &fe) {
		t.Fatalf("persistent write faults: want typed failure, got %v", err)
	}
}

func TestConfigStatementTimeoutAndBudget(t *testing.T) {
	db := New(Config{
		StatementTimeout: 123 * time.Millisecond,
		Budget:           exec.NewBudget(7, 0, 0),
	})
	if got := db.StatementTimeout(); got != 123*time.Millisecond {
		t.Fatalf("StatementTimeout: got %v", got)
	}
	if b := db.defaultBudget; b == nil || b.MaxBufferedRows != 7 {
		t.Fatalf("default budget not installed: %+v", b)
	}
}
