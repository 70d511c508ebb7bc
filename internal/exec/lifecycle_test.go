package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/sql"
)

// intRows builds n single-column rows with descending values (so sorts
// actually move data).
func intRows(n int) (*model.Schema, []*Row) {
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	rows := make([]*Row, n)
	for i := range rows {
		rows[i] = &Row{Tuple: model.NewTuple(int64(i), model.NewInt(int64(n-i)))}
	}
	return schema, rows
}

// isolateSpillDir points os.TempDir at a directory private to the test,
// so the spill-file counts below never see the files of test binaries
// running concurrently (go test runs packages in parallel, and they
// share the system temp directory).
func isolateSpillDir(t *testing.T) { t.Setenv("TMPDIR", t.TempDir()) }

// sortRunFiles counts leftover spill files in the temp directory.
func sortRunFiles(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "insightnotes-sortrun-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

func TestBudgetChargeIsAtomic(t *testing.T) {
	b := NewBudget(10, 1000, 0)
	if err := b.ChargeBuffered("X", 8, 100); err != nil {
		t.Fatal(err)
	}
	// Fails on rows; must not commit the byte side either.
	err := b.ChargeBuffered("X", 5, 100)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Op != "X" || be.Resource != "buffered rows" {
		t.Fatalf("unexpected budget error detail: %+v", be)
	}
	if got := b.BufferedRows(); got != 8 {
		t.Fatalf("failed charge committed rows: %d", got)
	}
	b.ReleaseBuffered(8, 100)
	if got := b.BufferedRows(); got != 0 {
		t.Fatalf("release did not zero rows: %d", got)
	}
	// nil budget is unlimited.
	var nb *Budget
	if err := nb.ChargeBuffered("X", 1<<40, 1<<40); err != nil {
		t.Fatalf("nil budget should be unlimited: %v", err)
	}
}

func TestCancellationStopsIteration(t *testing.T) {
	schema, rows := intRows(500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first poll must observe it
	it := NewSliceIter(schema, rows)
	_, err := Collect(NewQueryCtx(ctx, nil, 1), it)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCancellationMidSort(t *testing.T) {
	schema, rows := intRows(200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	isolateSpillDir(t)
	before := sortRunFiles(t)
	s := NewExternalSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, 16, nil)
	_, err := Collect(NewQueryCtx(ctx, nil, 1), s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("cancelled sort leaked temp files: %d -> %d", before, after)
	}
}

// panicIter panics with val on NextBatch to exercise operator panic
// isolation.
type panicIter struct {
	schema *model.Schema
	val    any
}

func (p *panicIter) Open(*QueryCtx) error { return nil }
func (p *panicIter) NextBatch(*QueryCtx) (*Batch, error) {
	panic(p.val)
}
func (p *panicIter) Close() error          { return nil }
func (p *panicIter) Schema() *model.Schema { return p.schema }

func TestOperatorPanicBecomesOpError(t *testing.T) {
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	f := NewFilter(&panicIter{schema: schema, val: "storage corruption"}, mustExpr(t, "v > 0"), nil)
	_, err := Collect(NewQueryCtx(context.Background(), nil, 1), f)
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OpError, got %T: %v", err, err)
	}
	if oe.Op != "Filter" {
		t.Fatalf("want innermost guarded operator name Filter, got %q", oe.Op)
	}
	if len(oe.Stack) == 0 {
		t.Fatal("OpError should carry the panic stack")
	}

	// A broken storage invariant arrives as a typed panic and must stay
	// typed through the wrapper.
	f = NewFilter(&panicIter{schema: schema, val: &pager.MissingVersionError{Page: 3, Snap: 9}}, mustExpr(t, "v > 0"), nil)
	_, err = Collect(NewQueryCtx(context.Background(), nil, 1), f)
	var mv *pager.MissingVersionError
	if !errors.As(err, &oe) || !errors.As(err, &mv) || mv.Page != 3 {
		t.Fatalf("want *OpError wrapping *pager.MissingVersionError, got %T: %v", err, err)
	}
}

func TestSortDegradesToSpillUnderBudget(t *testing.T) {
	schema, rows := intRows(300)
	isolateSpillDir(t)
	before := sortRunFiles(t)
	// Room for ~40 rows in memory, ample spill.
	budget := NewBudget(40, 0, 1<<30)
	s := NewSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, nil)
	out, err := Collect(NewQueryCtx(context.Background(), budget, 1), s)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Spilled() {
		t.Fatal("sort should have degraded to external runs under budget pressure")
	}
	if len(out) != len(rows) {
		t.Fatalf("row count: want %d, got %d", len(rows), len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Tuple.Values[0].Int > out[i].Tuple.Values[0].Int {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("sort leaked temp files: %d -> %d", before, after)
	}
	if budget.BufferedRows() != 0 || budget.SpillBytes() != 0 {
		t.Fatalf("budget not fully released: rows=%d spill=%d",
			budget.BufferedRows(), budget.SpillBytes())
	}
}

func TestSortSpillBudgetIsHardLimit(t *testing.T) {
	schema, rows := intRows(500)
	isolateSpillDir(t)
	before := sortRunFiles(t)
	// Tiny memory budget forces spilling, and the spill allowance is too
	// small for even one run: the temp-file budget is a hard limit.
	budget := NewBudget(10, 0, 16)
	s := NewSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, nil)
	_, err := Collect(NewQueryCtx(context.Background(), budget, 1), s)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != "spill bytes" {
		t.Fatalf("unexpected budget error detail: %+v", be)
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("failed sort leaked temp files: %d -> %d", before, after)
	}
	if budget.BufferedRows() != 0 || budget.SpillBytes() != 0 {
		t.Fatalf("budget not released after failure: rows=%d spill=%d",
			budget.BufferedRows(), budget.SpillBytes())
	}
}

// errAfterIter yields n rows then fails — exercises Sort's mid-Open
// error path after runs have already been flushed.
type errAfterIter struct {
	schema *model.Schema
	n, pos int
}

func (e *errAfterIter) Open(*QueryCtx) error { e.pos = 0; return nil }
func (e *errAfterIter) NextBatch(qc *QueryCtx) (*Batch, error) {
	if e.pos >= e.n {
		return nil, fmt.Errorf("simulated input failure after %d rows", e.n)
	}
	b := GetBatch(qc.Capacity())
	for ; b.Len() < qc.Capacity() && e.pos < e.n; e.pos++ {
		b.Append(&Row{Tuple: model.NewTuple(int64(e.pos+1), model.NewInt(int64(-e.pos-1)))})
	}
	return b, nil
}
func (e *errAfterIter) Close() error          { return nil }
func (e *errAfterIter) Schema() *model.Schema { return e.schema }

func TestSortMidOpenFailureRemovesRuns(t *testing.T) {
	schema := model.NewSchema("t", model.Column{Name: "v", Kind: model.KindInt})
	isolateSpillDir(t)
	before := sortRunFiles(t)
	s := NewExternalSort(&errAfterIter{schema: schema, n: 100}, // several 8-row runs, then error
		[]SortKey{{Expr: mustExpr(t, "v")}}, 8, nil)
	_, err := Collect(NewQueryCtx(context.Background(), nil, 1), s)
	if err == nil {
		t.Fatal("want input failure, got nil")
	}
	if after := sortRunFiles(t); after != before {
		t.Fatalf("mid-Open failure leaked temp files: %d -> %d", before, after)
	}
}

// A spilled run that fails to read back mid-record fails the sort: the
// merge must not treat a torn run as ended and return fewer rows.
func TestSortTornRunFailsQuery(t *testing.T) {
	schema, rows := intRows(4000)
	isolateSpillDir(t)
	s := NewExternalSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, 2000, nil)
	qc := NewQueryCtx(context.Background(), nil, 1)
	if err := s.Open(qc); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Tear the last record of the first run; the decoder has buffered at
	// most a few KB of it, far short of its end.
	f := s.files[0]
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 16<<10 {
		t.Fatalf("run is only %d bytes; too small to outrun the decoder's buffer", info.Size())
	}
	if err := f.Truncate(info.Size() - 1); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := s.NextBatch(qc)
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("want io.ErrUnexpectedEOF from the torn run, got %v", err)
			}
			return
		}
		if b == nil {
			t.Fatalf("sort over a torn run returned %d of %d rows and no error", n, len(rows))
		}
		n += b.Len()
		b.Release()
	}
}

func TestHashJoinFailsFastOverBudget(t *testing.T) {
	schema, rows := intRows(100)
	j := NewHashJoin(
		NewSliceIter(schema, rows), NewSliceIter(schema, rows),
		mustExpr(t, "v"), mustExpr(t, "v"), nil, false, nil)
	budget := NewBudget(10, 0, 0) // build side is 100 rows
	_, err := Collect(NewQueryCtx(context.Background(), budget, 1), j)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Op != "HashJoin" {
		t.Fatalf("unexpected budget error detail: %+v", be)
	}
	if budget.BufferedRows() != 0 {
		t.Fatalf("budget not released after failed open: %d", budget.BufferedRows())
	}
}

func TestDistinctAndGroupByRespectBudget(t *testing.T) {
	schema, rows := intRows(100)
	for op, breaker := range map[string]Operator{
		"Distinct": NewDistinct(NewSliceIter(schema, rows), nil),
		"GroupBy": NewGroupBy(NewSliceIter(schema, rows),
			[]sql.Expr{mustExpr(t, "v")},
			[]AggSpec{{Func: "count", Star: true, Name: "n"}}, nil),
	} {
		budget := NewBudget(10, 0, 0)
		_, err := Collect(NewQueryCtx(context.Background(), budget, 1), breaker)
		var be *BudgetError
		if !errors.As(err, &be) || be.Op != op || be.Need != 11 {
			t.Fatalf("%s: want its own *BudgetError at the 11th row, got %v", op, err)
		}
		assertBudgetReturned(t, op, budget)
	}
}
