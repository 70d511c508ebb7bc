package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/model"
	"repro/internal/sql"
)

func TestBatchSelectionAndTruncate(t *testing.T) {
	b := GetBatch(8)
	_, rows := intRows(6)
	for _, r := range rows {
		b.Append(r)
	}
	if b.Len() != 6 {
		t.Fatalf("dense len = %d, want 6", b.Len())
	}
	// Select the even physical slots.
	sel := b.selStorage(3)
	sel = append(sel, 0, 2, 4)
	b.sel = sel
	if b.Len() != 3 {
		t.Fatalf("selected len = %d, want 3", b.Len())
	}
	for i, want := range []int{0, 2, 4} {
		if b.Row(i) != rows[want] {
			t.Fatalf("Row(%d) != physical row %d", i, want)
		}
	}
	b.Truncate(2)
	if b.Len() != 2 || b.Row(1) != rows[2] {
		t.Fatalf("truncated selection wrong: len=%d", b.Len())
	}
	// Appending through a selection is a protocol violation.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Append on a selected batch should panic")
			}
		}()
		b.Append(rows[0])
	}()
	b.Release()
	// The pool must hand back a clean container, never retained rows —
	// including the slots Truncate cut off.
	assertPoolHoldsNoRows(t)
}

// assertPoolHoldsNoRows takes a handful of containers out of the batch
// pool and fails if any slot of any of them still points at a row.
func assertPoolHoldsNoRows(t *testing.T) {
	t.Helper()
	var taken []*Batch
	for i := 0; i < 16; i++ {
		b := GetBatch(1)
		taken = append(taken, b)
		if b.Len() != 0 || b.sel != nil {
			t.Fatalf("pooled batch not clean: len=%d sel=%v", b.Len(), b.sel)
		}
		for slot, r := range b.rows[:cap(b.rows)] {
			if r != nil {
				t.Fatalf("pooled batch retains a row pointer in slot %d of %d", slot, cap(b.rows))
			}
		}
	}
	for _, b := range taken {
		b.Release()
	}
}

func TestTransformBatchConsumesSelection(t *testing.T) {
	b := GetBatch(8)
	_, rows := intRows(5)
	for _, r := range rows {
		b.Append(r)
	}
	sel := b.selStorage(3)
	b.sel = append(sel, 1, 3, 4)
	if err := transformBatch(b, func(r *Row) (*Row, error) { return r, nil }); err != nil {
		t.Fatal(err)
	}
	if b.sel != nil {
		t.Fatal("transformBatch should consume the selection vector")
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	for i, want := range []int{1, 3, 4} {
		if b.Row(i) != rows[want] {
			t.Fatalf("compacted row %d != physical row %d", i, want)
		}
	}
	b.Release()
	assertPoolHoldsNoRows(t)
}

var testCapacities = []int{1, 2, 3, 7, 1024}

// TestCollectPreservesRowIdentity pins the result-boundary contract at
// every capacity: rows travelling through batches come out of Collect
// as the very same pointers in the same order, and releasing the
// containers they travelled in never invalidates them.
func TestCollectPreservesRowIdentity(t *testing.T) {
	schema, rows := intRows(10)
	for _, c := range testCapacities {
		out, err := Collect(NewQueryCtx(nil, nil, c), NewSliceIter(schema, rows))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(rows) {
			t.Fatalf("capacity %d lost rows: %d of %d", c, len(out), len(rows))
		}
		for i := range out {
			if out[i] != rows[i] {
				t.Fatalf("capacity %d row %d: batching changed identity or order", c, i)
			}
		}
	}
}

// TestOperatorsCapacityInvariant builds every operator that can run
// over an in-memory source and requires the capacity-1 output, row for
// row, at every other capacity — the exec-level half of the engine's
// TestVectorizedDifferential, aimed at the batch-boundary edges of the
// emitting side (partial last batches, probe state carried across
// calls, LIMIT cutting a batch).
func TestOperatorsCapacityInvariant(t *testing.T) {
	out := model.NewSchema("", model.Column{Name: "v", Kind: model.KindInt})
	key := []sql.Expr{mustExpr(t, "v / 10")}
	trees := map[string]func() Operator{
		"filter_project_limit": func() Operator {
			schema, rows := intRows(100)
			f := NewFilter(NewSliceIter(schema, rows), mustExpr(t, "v > 20"), nil)
			return NewLimit(NewProject(f, []sql.Expr{mustExpr(t, "v")}, out, nil), 30)
		},
		"sort": func() Operator {
			schema, rows := intRows(100)
			return NewSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v")}}, nil)
		},
		"external_sort": func() Operator {
			schema, rows := intRows(100)
			return NewExternalSort(NewSliceIter(schema, rows), []SortKey{{Expr: mustExpr(t, "v"), Desc: true}}, 8, nil)
		},
		"hash_join": func() Operator {
			schema, rows := intRows(40)
			return NewHashJoin(NewSliceIter(schema, rows), NewSliceIter(schema.Rename("u"), rows),
				key[0], key[0], mustExpr(t, "t.v > u.v"), false, nil)
		},
		"nl_join": func() Operator {
			schema, rows := intRows(25)
			return NewNLJoin(NewSliceIter(schema, rows), NewSliceIter(schema.Rename("u"), rows),
				mustExpr(t, "t.v + u.v > 20"), false, nil)
		},
		"group_by": func() Operator {
			schema, rows := intRows(100)
			return NewGroupBy(NewSliceIter(schema, rows), key,
				[]AggSpec{{Func: "count", Star: true, Name: "n"}, {Func: "sum", Arg: mustExpr(t, "v"), Name: "s"}}, nil)
		},
		"distinct": func() Operator {
			schema, rows := intRows(100)
			return NewDistinct(NewProject(NewSliceIter(schema, rows), key, out, nil), nil)
		},
	}
	for name, build := range trees {
		want, err := Collect(NewQueryCtx(nil, nil, 1), build())
		if err != nil {
			t.Fatalf("%s capacity 1: %v", name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: empty reference", name)
		}
		for _, c := range testCapacities[1:] {
			got, err := Collect(NewQueryCtx(nil, nil, c), build())
			if err != nil {
				t.Fatalf("%s capacity %d: %v", name, c, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s capacity %d: %d rows, want %d", name, c, len(got), len(want))
			}
			for i := range got {
				if rowKey(got[i]) != rowKey(want[i]) {
					t.Fatalf("%s capacity %d row %d: got %s, want %s", name, c, i, rowKey(got[i]), rowKey(want[i]))
				}
			}
		}
	}
}

// cancelAfter passes its input's batches through and fires cancel while
// handing out the batch that contains row k — mid-batch, from the
// consumer's point of view. It never looks at the query context itself,
// so only a producer's batch-boundary poll can stop the pipeline.
type cancelAfter struct {
	Operator
	k, seen int
	cancel  context.CancelFunc
}

func (c *cancelAfter) NextBatch(qc *QueryCtx) (*Batch, error) {
	b, err := c.Operator.NextBatch(qc)
	if b != nil {
		if c.seen < c.k && c.seen+b.Len() >= c.k {
			c.cancel()
		}
		c.seen += b.Len()
	}
	return b, err
}

// TestMidBatchCancellationStopsWithinOneBatch is the regression test
// for the cancellation cadence: producers poll once per batch (from
// capacity 64 up), so a context cancelled mid-batch must abort the
// query no later than the next batch boundary — the in-flight batch may
// complete, but the source must not be asked for one more. It holds
// wherever the batches go: a streaming filter, a join probe, a
// pipeline breaker's input drain, and a Gather worker running ahead on
// its own goroutine.
func TestMidBatchCancellationStopsWithinOneBatch(t *testing.T) {
	const total, cancelAt, batch = 500, 10, 64
	one := []*Row{{Tuple: model.NewTuple(0, model.NewInt(1))}}
	consumers := map[string]func(src Operator) Operator{
		"filter": func(src Operator) Operator { return NewFilter(src, mustExpr(t, "v > 0"), nil) },
		"join_probe": func(src Operator) Operator {
			return NewHashJoin(src, NewSliceIter(src.Schema(), one), mustExpr(t, "v * 0 + 1"), mustExpr(t, "v"), nil, false, nil)
		},
		"groupby_input": func(src Operator) Operator {
			return NewGroupBy(src, []sql.Expr{mustExpr(t, "v")}, []AggSpec{{Func: "count", Star: true, Name: "n"}}, nil)
		},
		"gather_worker": func(src Operator) Operator { return NewGather([]Operator{src}) },
	}
	for name, consumer := range consumers {
		schema, rows := intRows(total)
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancelAfter{Operator: NewSliceIter(schema, rows), k: cancelAt, cancel: cancel}
		out, err := Collect(NewQueryCtx(ctx, nil, batch), consumer(src))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v (%d rows out)", name, err, len(out))
		}
		if src.seen > batch {
			t.Fatalf("%s: cancel at row %d leaked past one batch boundary: source handed out %d rows (batch=%d)",
				name, cancelAt, src.seen, batch)
		}
	}
}

// assertBudgetReturned requires that nothing is outstanding against b:
// every reservation gave back at Close exactly what it had charged.
func assertBudgetReturned(t *testing.T, what string, b *Budget) {
	t.Helper()
	if rows, bytes, spill := b.bufRows.Load(), b.bufBytes.Load(), b.spillBytes.Load(); rows != 0 || bytes != 0 || spill != 0 {
		t.Fatalf("%s: budget not returned: rows=%d bytes=%d spill=%d", what, rows, bytes, spill)
	}
}

// TestBreakersReleaseBatchesOnFailure runs every operator that charges
// the budget — the pipeline breakers in their serial and partitioned
// forms, and the Summary-BTree scan's hit list — to a clean finish and
// into a failure of each kind: an input error, a budget violation or a
// cancellation while Open drains the input, and a cancellation
// mid-stream once Open has succeeded. After Close nothing may be
// outstanding against the budget, and the batch pool must hold no row
// pointers: every batch a breaker consumed was released (which clears
// it) or dropped, never pooled dirty.
func TestBreakersReleaseBatchesOnFailure(t *testing.T) {
	key := mustExpr(t, "v")
	count := []AggSpec{{Func: "count", Star: true, Name: "n"}}
	schema, hundred := intRows(100)
	probe := func() Operator { return NewSliceIter(schema, hundred) }
	// few is the second partition of the partitioned forms; its keys
	// repeat the first partition's, so merging partials releases charges.
	few := func() Operator { return NewSliceIter(schema, hundred[:5]) }
	f, sIdx, _ := indexedFixture(t, 400)
	indexScan := func(part PartitionSpec) func(Operator) Operator {
		return func(Operator) Operator { // a leaf: the hit list is what it buffers
			s := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0, false)
			s.SortedFetch, s.Part = true, part
			return s
		}
	}
	breakers := map[string]func(in Operator) Operator{
		"sort":          func(in Operator) Operator { return NewSort(in, []SortKey{{Expr: key}}, nil) },
		"external_sort": func(in Operator) Operator { return NewExternalSort(in, []SortKey{{Expr: key}}, 8, nil) },
		"hash_build": func(in Operator) Operator {
			return NewHashJoin(probe(), in, key, key, nil, false, nil)
		},
		"partitioned_hash_build": func(in Operator) Operator {
			return NewParallelHashJoin(probe(), []Operator{in, few()}, key, key, nil, false, nil)
		},
		"group_by": func(in Operator) Operator { return NewGroupBy(in, []sql.Expr{key}, count, nil) },
		"parallel_group_by": func(in Operator) Operator {
			return NewParallelGroupBy([]Operator{in, few()}, []sql.Expr{key}, count, nil)
		},
		"distinct":               func(in Operator) Operator { return NewDistinct(in, nil) },
		"index_scan_sorted":      indexScan(PartitionSpec{}),
		"index_scan_partitioned": indexScan(PartitionSpec{Index: 1, Of: 2}),
	}
	for name, breaker := range breakers {
		for _, capacity := range []int{1, 7, 1024} {
			what := fmt.Sprintf("%s capacity %d", name, capacity)
			check := func(budget *Budget) {
				t.Helper()
				assertBudgetReturned(t, what, budget)
				assertPoolHoldsNoRows(t)
			}

			// A clean run charges something and returns all of it.
			budget := NewBudget(0, 0, 0)
			if _, err := Collect(NewQueryCtx(nil, budget, capacity), breaker(NewSliceIter(schema, hundred))); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if rows, _, _ := budget.ChargeTotals(); rows == 0 {
				t.Fatalf("%s: charged nothing", what)
			}
			check(budget)

			// Budget: 10 buffered rows and no spill room against 100
			// distinct input rows (400 hits) fails every Open midway.
			budget = NewBudget(10, 0, 1)
			_, err := Collect(NewQueryCtx(nil, budget, capacity), breaker(NewSliceIter(schema, hundred)))
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%s: want ErrBudgetExceeded, got %v", what, err)
			}
			check(budget)

			// Cancellation mid-stream: Open succeeded and holds its
			// charges when the consumer cancels on an early output batch
			// (an output that fits one batch is over before that).
			budget = NewBudget(0, 0, 0)
			ctx, cancel := context.WithCancel(context.Background())
			out := &cancelAfter{Operator: breaker(NewSliceIter(schema, hundred)), k: 10, cancel: cancel}
			_, err = Collect(NewQueryCtx(ctx, budget, capacity), out)
			cancel()
			if capacity < len(hundred) && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: want context.Canceled mid-stream, got %v", what, err)
			}
			check(budget)

			if strings.HasPrefix(name, "index_scan") {
				continue // no input to fail
			}

			// Input error after 100 rows.
			budget = NewBudget(0, 0, 0)
			_, err = Collect(NewQueryCtx(nil, budget, capacity), breaker(&errAfterIter{schema: schema, n: 100}))
			if err == nil || !strings.Contains(err.Error(), "simulated input failure") {
				t.Fatalf("%s: want the input failure, got %v", what, err)
			}
			check(budget)

			// Cancellation while the breaker drains its input.
			budget = NewBudget(0, 0, 0)
			ctx, cancel = context.WithCancel(context.Background())
			src := &cancelAfter{Operator: NewSliceIter(schema, hundred), k: 10, cancel: cancel}
			_, err = Collect(NewQueryCtx(ctx, budget, capacity), breaker(src))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: want context.Canceled, got %v", what, err)
			}
			check(budget)
		}
	}
}
