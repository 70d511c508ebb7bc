package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/sql"
)

// partitionedScans builds one page-range-partitioned SeqScan per worker
// over the fixture's R table, as the compiler would for a Gather
// fragment of dop workers.
func partitionedScans(f *opsFixture, dop int, propagate bool) []Operator {
	workers := make([]Operator, dop)
	for i := range workers {
		s := NewSeqScan(f.r, "r")
		s.Part = PartitionSpec{Index: i, Of: dop}
		workers[i] = s
		if propagate {
			workers[i] = NewAttachSummaries(s, f.r)
		}
	}
	return workers
}

// rowKey folds a row's data and summaries into a comparable string.
func rowKey(r *Row) string { return r.Tuple.String() + " " + r.Tuple.Summaries.String() }

func TestGatherMatchesSerialScan(t *testing.T) {
	f := newOpsFixture(t, 40, 0) // PageCap 8 -> 5 pages
	serial, err := Collect(nil, summaryScan(f.r, "r"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2, 3, 5, 8} {
		par, err := Collect(nil, NewGather(partitionedScans(f, dop, true)))
		if err != nil {
			t.Fatalf("dop %d: %v", dop, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("dop %d: %d rows, serial %d", dop, len(par), len(serial))
		}
		for i := range par {
			if rowKey(par[i]) != rowKey(serial[i]) {
				t.Fatalf("dop %d: row %d differs:\n%s\n%s", dop, i, rowKey(par[i]), rowKey(serial[i]))
			}
		}
	}
}

func TestGatherWithFilterPipeline(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	pred := "r.a > 10"
	serial, err := Collect(nil, NewFilter(NewSeqScan(f.r, "r"), mustExpr(t, pred), nil))
	if err != nil {
		t.Fatal(err)
	}
	workers := partitionedScans(f, 3, false)
	for i, w := range workers {
		workers[i] = NewFilter(w, mustExpr(t, pred), nil)
	}
	par, err := Collect(nil, NewGather(workers))
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) || len(serial) != 30 {
		t.Fatalf("parallel %d rows, serial %d", len(par), len(serial))
	}
	for i := range par {
		if rowKey(par[i]) != rowKey(serial[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestParallelGroupByMatchesSerial groups rows that carry all three
// summary types and share annotations across tuples (newMergeFixture),
// so partial accumulators of one group meet in the final merge with
// snippets to drop and cluster chains that cross the partition cut. At
// every worker count and batch capacity the groups, their order, every
// aggregate and the complete summary sets must be the serial plan's.
func TestParallelGroupByMatchesSerial(t *testing.T) {
	f := newMergeFixture(t, 96) // PageCap 8 -> 12 pages, enough for 8 workers
	keys := func() []sql.Expr { return []sql.Expr{mustExpr(t, "r.a / 12")} }
	aggs := func() []AggSpec {
		return []AggSpec{
			{Func: "count", Star: true, Name: "cnt"},
			{Func: "sum", Arg: mustExpr(t, "r.a"), Name: "total"},
			{Func: "min", Arg: mustExpr(t, "r.a"), Name: "lo"},
			{Func: "max", Arg: mustExpr(t, "r.a"), Name: "hi"},
			{Func: "avg", Arg: mustExpr(t, "r.a"), Name: "mean"},
		}
	}
	serial, err := Collect(nil, NewGroupBy([]Operator{summaryScan(f.r, "r")}, keys(), aggs(), nil))
	if err != nil {
		t.Fatal(err)
	}
	want := fullKeys(serial)
	if len(serial) != 9 || len(serial[1].Tuple.Summaries) != 3 {
		t.Fatalf("fixture drifted: %d groups\n%s", len(serial), want)
	}
	for _, capacity := range []int{1, 1024} {
		for _, dop := range []int{1, 2, 3, 8} {
			par, err := Collect(NewQueryCtx(nil, nil, capacity),
				NewGroupBy(partitionedScans(f, dop, true), keys(), aggs(), nil))
			if err != nil {
				t.Fatalf("capacity %d dop %d: %v", capacity, dop, err)
			}
			if got := fullKeys(par); got != want {
				t.Fatalf("capacity %d dop %d:\ngot\n%s\nserial\n%s", capacity, dop, got, want)
			}
		}
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	f := newOpsFixture(t, 9, 40)
	serial, err := Collect(nil, NewHashJoin(summaryScan(f.r, "r"), []Operator{summaryScan(f.s, "s")},
		mustExpr(t, "r.a"), mustExpr(t, "s.x"), nil, true, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{2, 3, 5} {
		builds := make([]Operator, dop)
		for i := range builds {
			b := NewSeqScan(f.s, "s")
			b.Part = PartitionSpec{Index: i, Of: dop}
			builds[i] = NewAttachSummaries(b, f.s)
		}
		par, err := Collect(nil, NewHashJoin(summaryScan(f.r, "r"), builds,
			mustExpr(t, "r.a"), mustExpr(t, "s.x"), nil, true, nil))
		if err != nil {
			t.Fatalf("dop %d: %v", dop, err)
		}
		if len(par) != len(serial) || len(serial) == 0 {
			t.Fatalf("dop %d: %d rows, serial %d", dop, len(par), len(serial))
		}
		// Partition-ordered build folding keeps per-key row order equal to
		// a serial build, so output order matches exactly.
		for i := range par {
			if rowKey(par[i]) != rowKey(serial[i]) {
				t.Fatalf("dop %d: row %d differs:\n%s\n%s", dop, i, rowKey(par[i]), rowKey(serial[i]))
			}
		}
	}
}

// failingWorkerIter yields n rows from its child, then fails (or panics).
type failingWorkerIter struct {
	child Operator
	n     int
	panic bool
	seen  int
}

func (e *failingWorkerIter) Open(qc *QueryCtx) error { e.seen = 0; return e.child.Open(qc) }
func (e *failingWorkerIter) NextBatch(qc *QueryCtx) (*Batch, error) {
	if e.seen >= e.n {
		if e.panic {
			panic("worker exploded")
		}
		return nil, errors.New("worker failed")
	}
	b, err := e.child.NextBatch(qc)
	if b != nil {
		e.seen += b.Len()
	}
	return b, err
}
func (e *failingWorkerIter) Close() error          { return e.child.Close() }
func (e *failingWorkerIter) Schema() *model.Schema { return e.child.Schema() }

func TestGatherWorkerErrorPropagates(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	workers := partitionedScans(f, 3, false)
	workers[2] = &failingWorkerIter{child: workers[2], n: 2}
	_, err := Collect(nil, NewGather(workers))
	if err == nil || !strings.Contains(err.Error(), "worker failed") {
		t.Fatalf("err = %v", err)
	}
}

// TestGatherWorkerErrorSurvivesFullBuffer fails a worker while its
// channel is full: at capacity 1024 the per-worker buffer is one batch,
// which worker 1 fills before failing on its second call while the
// coordinator is still on worker 0. The failure must reach the caller —
// not a silently truncated result, and not the cancellation it induced
// in worker 0 — whichever way the goroutines interleave.
func TestGatherWorkerErrorSurvivesFullBuffer(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	for i := 0; i < 50; i++ {
		workers := partitionedScans(f, 2, false)
		workers[1] = &failingWorkerIter{child: workers[1], n: 1}
		rows, err := Collect(NewQueryCtx(context.Background(), nil, 1024), NewGather(workers))
		if err == nil || !strings.Contains(err.Error(), "worker failed") {
			t.Fatalf("run %d: %d rows, err = %v, want the worker's failure", i, len(rows), err)
		}
	}
}

func TestGatherWorkerPanicIsolated(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	workers := partitionedScans(f, 3, false)
	workers[0] = &failingWorkerIter{child: workers[0], n: 1, panic: true}
	_, err := Collect(nil, NewGather(workers))
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OpError, got %v", err)
	}
	if oe.Op != "ParallelWorker" {
		t.Fatalf("op = %q", oe.Op)
	}
}

// TestBreakerPartitionPanicIsolated panics one partition of a GroupBy's
// input and of a hash join's build side. Over several partitions the
// panic surfaces as the worker's *OpError; over one, which runs inline
// on the query goroutine, as the breaker's own. Either way Close
// releases every charge the partitions committed before it.
func TestBreakerPartitionPanicIsolated(t *testing.T) {
	f := newOpsFixture(t, 9, 40)
	breakers := map[string]func(parts []Operator) Operator{
		"GroupBy": func(parts []Operator) Operator {
			return NewGroupBy(parts, []sql.Expr{mustExpr(t, "s.x")},
				[]AggSpec{{Func: "count", Star: true, Name: "n"}}, nil)
		},
		"HashJoin": func(parts []Operator) Operator {
			return NewHashJoin(NewSeqScan(f.r, "r"), parts,
				mustExpr(t, "r.a"), mustExpr(t, "s.x"), nil, false, nil)
		},
	}
	for name, breaker := range breakers {
		for dop, want := range map[int]string{1: name, 3: "ParallelWorker"} {
			parts := make([]Operator, dop)
			for i := range parts {
				s := NewSeqScan(f.s, "s")
				s.Part = PartitionSpec{Index: i, Of: dop}
				parts[i] = s
			}
			parts[dop-1] = &failingWorkerIter{child: parts[dop-1], n: 1, panic: true}
			budget := NewBudget(1000, 0, 0)
			_, err := Collect(NewQueryCtx(context.Background(), budget, 1), breaker(parts))
			var oe *OpError
			if !errors.As(err, &oe) || oe.Op != want {
				t.Errorf("%s over %d partitions: err = %v, want an *OpError of %s", name, dop, err, want)
			}
			if got := budget.BufferedRows(); got != 0 {
				t.Errorf("%s over %d partitions: leaked %d buffered rows", name, dop, got)
			}
		}
	}
}

func TestParallelGroupByWorkerErrorPropagates(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	workers := partitionedScans(f, 3, true)
	workers[1] = &failingWorkerIter{child: workers[1], n: 3}
	g := NewGroupBy(workers, []sql.Expr{mustExpr(t, "r.a / 7")},
		[]AggSpec{{Func: "count", Star: true, Name: "cnt"}}, nil)
	budget := NewBudget(1000, 0, 0)
	_, err := Collect(NewQueryCtx(context.Background(), budget, 1), g)
	if err == nil || !strings.Contains(err.Error(), "worker failed") {
		t.Fatalf("err = %v", err)
	}
	// Close (inside Collect) must have released every charge the
	// successful sibling partitions committed before the failure.
	if got := budget.BufferedRows(); got != 0 {
		t.Fatalf("leaked %d buffered rows after failed parallel group-by", got)
	}
}

func TestParallelBuildBudgetRelease(t *testing.T) {
	f := newOpsFixture(t, 9, 40)
	builds := make([]Operator, 3)
	for i := range builds {
		b := NewSeqScan(f.s, "s")
		b.Part = PartitionSpec{Index: i, Of: 3}
		builds[i] = b
	}
	j := NewHashJoin(NewSeqScan(f.r, "r"), builds,
		mustExpr(t, "r.a"), mustExpr(t, "s.x"), nil, false, nil)
	budget := NewBudget(10, 0, 0) // build side is 40 rows
	_, err := Collect(NewQueryCtx(context.Background(), budget, 1), j)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v", err)
	}
	if got := budget.BufferedRows(); got != 0 {
		t.Fatalf("leaked %d buffered rows after failed parallel build", got)
	}
}

func TestGatherCancellation(t *testing.T) {
	f := newOpsFixture(t, 40, 0)
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGather(partitionedScans(f, 3, false))
	qc := NewQueryCtx(ctx, nil, 1)
	if err := g.Open(qc); err != nil {
		t.Fatal(err)
	}
	if _, err := g.NextBatch(qc); err != nil {
		t.Fatal(err)
	}
	cancel()
	// At capacity 1 the tick polls every tickEvery rows; drive until it
	// trips.
	var err error
	for i := 0; i < 10*tickEvery; i++ {
		if _, err = g.NextBatch(qc); err != nil {
			break
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if cerr := g.Close(); cerr != nil {
		t.Fatal(cerr)
	}
}

// TestBudgetConcurrentHammer drives many goroutines charging one shared
// budget and asserts the committed totals never overshoot a limit — the
// lost-update class the CAS loops exist to prevent. Run with -race.
func TestBudgetConcurrentHammer(t *testing.T) {
	const (
		workers   = 8
		attempts  = 2000
		rowLimit  = 5000
		byteLimit = 40000 // 10 bytes/row -> bytes trip first above 4000 rows
	)
	b := NewBudget(rowLimit, byteLimit, 0)
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				if err := b.ChargeBuffered("hammer", 1, 10); err == nil {
					committed.Add(1)
				}
				// Invariant under concurrency: live charges never exceed
				// either limit, even transiently (bytes failures roll the
				// paired rows charge back).
				if rows := b.BufferedRows(); rows > rowLimit {
					t.Errorf("buffered rows %d exceeds limit %d", rows, rowLimit)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(byteLimit / 10)
	if got := committed.Load(); got != want {
		t.Fatalf("committed %d charges, want exactly %d (limit/size)", got, want)
	}
	if got := b.BufferedRows(); got != want {
		t.Fatalf("buffered rows %d, want %d", got, want)
	}
	tr, tb, _ := b.ChargeTotals()
	if tr != want || tb != want*10 {
		t.Fatalf("totals rows=%d bytes=%d, want %d/%d", tr, tb, want, want*10)
	}
	// Concurrent releases drain the books back to zero.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); i < want; i += workers {
				b.ReleaseBuffered(1, 10)
			}
		}(w)
	}
	wg.Wait()
	if got := b.BufferedRows(); got != 0 {
		t.Fatalf("buffered rows %d after full release", got)
	}
}

// TestQueryCtxConcurrentTicks shares one QueryCtx across goroutines
// ticking through cancellation — the data race the atomics fixed. Run
// with -race.
func TestQueryCtxConcurrentTicks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	qc := NewQueryCtx(ctx, nil, 1)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := qc.tick(1); err != nil {
					errCh <- err
					return
				}
				if i == 100 {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	n := 0
	for err := range errCh {
		n++
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	}
	if n != 8 {
		t.Fatalf("only %d/8 tickers observed the cancellation", n)
	}
	cancel()
}
