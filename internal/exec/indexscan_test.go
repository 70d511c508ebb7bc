package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/model"
)

// indexedFixture extends opsFixture with both index schemes over R.C1.
func indexedFixture(t *testing.T, n int) (*opsFixture, *index.SummaryBTree, *index.Baseline) {
	t.Helper()
	f := newOpsFixture(t, n, 0)
	sIdx := index.NewSummaryBTree(nil, "C1")
	bIdx := index.NewBaseline(nil, 8, "C1")
	f.r.SummaryStorage.Scan(func(_ heap.RID, oid int64, set model.SummarySet) bool {
		obj := set.Get("C1")
		rid, _ := f.r.DiskTupleLoc(oid)
		if err := sIdx.IndexObject(obj, rid); err != nil {
			t.Fatal(err)
		}
		if err := bIdx.IndexObject(obj); err != nil {
			t.Fatal(err)
		}
		return true
	})
	return f, sIdx, bIdx
}

func TestSummaryIndexScanBackwardAndConventional(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 16)
	// Disease = 2 matches i%4 == 2.
	scan := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpEq, 2)
	rows, err := Collect(nil, NewAttachSummaries(scan, f.r))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Tuple.Summaries.Get("C1") == nil {
			t.Fatal("propagation missing")
		}
		if d, _ := row.Tuple.Summaries.Get("C1").GetLabelValue("Disease"); d != 2 {
			t.Fatalf("false positive: Disease=%d", d)
		}
	}
	if scan.Schema().Len() != 2 {
		t.Errorf("schema: %s", scan.Schema())
	}

	// Conventional pointers return the same rows, paying extra reads.
	conv := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpEq, 2)
	conv.ConventionalPointers = true
	convRows, err := Collect(nil, NewAttachSummaries(conv, f.r))
	if err != nil {
		t.Fatal(err)
	}
	if len(convRows) != len(rows) {
		t.Fatalf("conventional rows = %d, want %d", len(convRows), len(rows))
	}

	// Without the attach the scan fetches no summary sets.
	bare := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpEq, 2)
	bareRows, err := Collect(nil, bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(bareRows) != 4 || bareRows[0].Tuple.Summaries != nil {
		t.Error("a bare index scan attached summaries")
	}

	// Descending reverses the count order.
	desc := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0)
	desc.Descending = true
	descRows, err := Collect(nil, NewAttachSummaries(desc, f.r))
	if err != nil {
		t.Fatal(err)
	}
	prev := 1 << 30
	for _, row := range descRows {
		d, _ := row.Tuple.Summaries.Get("C1").GetLabelValue("Disease")
		if d > prev {
			t.Fatal("descending order broken")
		}
		prev = d
	}
}

func TestBaselineIndexScanAndReconstruct(t *testing.T) {
	f, _, bIdx := indexedFixture(t, 16)
	scan := NewBaselineIndexScan(f.r, "r", bIdx, "Disease", index.OpGe, 3)
	rows, err := Collect(nil, NewAttachSummaries(scan, f.r))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // i%4 == 3
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Tuple.Summaries.Get("C1") == nil {
		t.Fatal("de-normalized propagation missing")
	}
	if scan.Schema().Len() != 2 {
		t.Errorf("schema: %s", scan.Schema())
	}

	// Reconstruction path: summaries rebuilt from normalized rows carry
	// counts (but there is only the classifier object).
	rec := NewBaselineIndexScan(f.r, "r", bIdx, "Disease", index.OpGe, 3)
	rec.ReconstructSummaries = true
	recRows, err := Collect(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(recRows) != 4 {
		t.Fatalf("reconstruct rows = %d", len(recRows))
	}
	obj := recRows[0].Tuple.Summaries.Get("C1")
	if obj == nil {
		t.Fatal("reconstructed object missing")
	}
	if d, _ := obj.GetLabelValue("Disease"); d != 3 {
		t.Errorf("reconstructed Disease = %d", d)
	}
}

// TestIndexJoinMissingIndex: an inner column without a data index
// probes to no partners rather than failing; once the index exists, each
// outer row meets its equal inner rows.
func TestIndexJoinMissingIndex(t *testing.T) {
	f := newOpsFixture(t, 4, 8)
	join := func() ([]*Row, error) {
		return Collect(nil, NewIndexJoin(NewSeqScan(f.s, "s"), f.r, "r", "a", mustExpr(t, "s.x"), nil, true, nil))
	}
	rows, err := join()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows without index = %d", len(rows))
	}
	if _, err := f.r.CreateDataIndex("a"); err != nil {
		t.Fatal(err)
	}
	if rows, err = join(); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // s.x runs 1,2,3,0 twice; r.a is 1..4
		t.Fatalf("indexed join: %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if v := r.Tuple.Values; v[0].Int != v[2].Int || len(r.Tuple.Summaries) == 0 {
			t.Fatalf("joined row %v: keys differ or the inner summaries are missing", v)
		}
	}
}

// TestSummaryIndexScanFetchModesAgree is the operator-level differential:
// for both pointer schemes, sorted (page-ordered) fetch returns exactly
// the rows of the default ordered fetch, only rearranged — the multisets
// of OIDs are equal, and the sorted run comes back in ascending physical
// address order.
func TestSummaryIndexScanFetchModesAgree(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 32)
	for _, conv := range []bool{false, true} {
		ordered := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
		ordered.ConventionalPointers = conv
		sorted := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
		sorted.ConventionalPointers = conv
		sorted.SortedFetch = true

		oRows, err := Collect(nil, NewAttachSummaries(ordered, f.r))
		if err != nil {
			t.Fatal(err)
		}
		sRows, err := Collect(nil, NewAttachSummaries(sorted, f.r))
		if err != nil {
			t.Fatal(err)
		}
		if len(oRows) != len(sRows) {
			t.Fatalf("conv=%v: ordered %d rows, sorted %d", conv, len(oRows), len(sRows))
		}
		oids := func(rows []*Row) []int64 {
			out := make([]int64, len(rows))
			for i, r := range rows {
				out[i] = r.Tuple.OID
			}
			return out
		}
		a, b := oids(oRows), oids(sRows)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		c := append([]int64(nil), b...)
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("conv=%v: OID multisets diverge at %d: %d vs %d", conv, i, a[i], c[i])
			}
		}
		// Insertion order makes OID order physical order, so the sorted
		// run must come back ascending.
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("conv=%v: sorted fetch not in page order: %v", conv, b)
			}
		}
		// Rows must still be full rows: summaries attached, predicate true.
		for _, r := range sRows {
			if d, _ := r.Tuple.Summaries.Get("C1").GetLabelValue("Disease"); d < 1 {
				t.Fatalf("conv=%v: false positive Disease=%d", conv, d)
			}
		}
	}
}

// TestSummaryIndexScanFetchStats pins the fetch counters both modes
// report: the sorted batch pins each distinct page once, the ordered
// path once per hit.
func TestSummaryIndexScanFetchStats(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 32)
	sorted := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
	sorted.SortedFetch = true
	rows, err := Collect(nil, sorted)
	if err != nil {
		t.Fatal(err)
	}
	fs := sorted.FetchStats()
	if fs.Mode != "sorted" {
		t.Errorf("mode = %q", fs.Mode)
	}
	if fs.PagesPinned != fs.DistinctPages {
		t.Errorf("sorted fetch pinned %d pages for %d distinct", fs.PagesPinned, fs.DistinctPages)
	}
	// Ordered mode counts the distinct pages of the hits it dereferences
	// when asked before Open, as the stats layer asks.
	ordered := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
	ordered.countPages()
	if err := ordered.Open(nil); err != nil {
		t.Fatal(err)
	}
	if err := drain(nil, ordered, func(*Batch, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ofs := ordered.FetchStats()
	ordered.Close()
	if again := ordered.FetchStats(); again != ofs {
		t.Errorf("fetch stats changed across Close: %+v, then %+v", ofs, again)
	}
	if ofs.Mode != "ordered" {
		t.Errorf("mode = %q", ofs.Mode)
	}
	if ofs.PagesPinned != int64(len(rows)) {
		t.Errorf("ordered fetch pinned %d pages for %d hits", ofs.PagesPinned, len(rows))
	}
	if ofs.DistinctPages != fs.DistinctPages {
		t.Errorf("distinct pages diverge: %d vs %d", ofs.DistinctPages, fs.DistinctPages)
	}
}

// TestSortedFetchAllocatesPerPageRun: a sorted fetch carves a page
// run's rows from per-run slabs, so dereferencing its hit list costs a
// constant per page run, however many hits share the page.
func TestSortedFetchAllocatesPerPageRun(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 64)
	s := NewSummaryIndexScan(f.r, "r", sIdx, "Other", index.OpGe, 1)
	s.SortedFetch = true
	if err := s.Open(nil); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hits, runs := len(s.hits), float64(s.distinctPages)
	n := testing.AllocsPerRun(10, func() {
		for s.pos = 0; s.pos < len(s.hits); {
			s.fillRun()
		}
	})
	if float64(hits) < 4*runs || n > 3*runs {
		t.Errorf("%d hits on %.0f page runs: %.0f allocations, want at most 3 a run", hits, runs, n)
	}
}

// TestOrderedFetchCountsPagesOnlyWhenSampled: an ordered scan the stats
// layer does not sample builds no set of the pages its hits address. Its
// Open allocates nothing proportional to the hits — a small fraction of
// what the hit list alone would take — and its drain allocates at least
// half a page set less than a sampled scan's, which counts the pages.
func TestOrderedFetchCountsPagesOnlyWhenSampled(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 4000)
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var hits []heap.RID
	list := allocated(func() { hits = sIdx.Search("Disease", index.OpGe, 1) })
	if len(hits) < 2000 {
		t.Fatalf("fixture yields %d hits, want a few thousand", len(hits))
	}
	distinct := map[int32]struct{}{}
	set := allocated(func() {
		for _, rid := range hits {
			distinct[rid.Page] = struct{}{}
		}
	})
	run := func(sampled bool) (open, drained uint64, fs FetchStats) {
		scan := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
		if sampled {
			scan.countPages()
		}
		open = allocated(func() {
			if err := scan.Open(nil); err != nil {
				t.Fatal(err)
			}
		})
		drained = allocated(func() {
			if err := drain(nil, scan, func(*Batch, int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		fs = scan.FetchStats()
		scan.Close()
		return open, drained, fs
	}
	open, plain, _ := run(false)
	_, counted, fs := run(true)
	if open > list/8 {
		t.Fatalf("unsampled Open of %d hits allocated %d bytes; the hit list alone takes %d", len(hits), open, list)
	}
	if plain+set/2 > counted {
		t.Fatalf("unsampled drain allocated %d bytes, sampled %d; a page set takes %d", plain, counted, set)
	}
	if fs.DistinctPages != int64(len(distinct)) {
		t.Fatalf("sampled distinct pages = %d, want %d", fs.DistinctPages, len(distinct))
	}
}

// TestPartitionHitsProperties checks the page-boundary partitioner: for
// any share count, concatenating the shares in partition order is
// exactly the input, no data page appears in two shares (the
// no-frame-contention property of the parallel sorted fetch), and each
// share's page count is the distinct pages it holds; no partition is
// one share of the whole list.
func TestPartitionHitsProperties(t *testing.T) {
	hits := []heap.RID{
		{Page: 0, Slot: 0}, {Page: 0, Slot: 3}, {Page: 1, Slot: 1},
		{Page: 2, Slot: 0}, {Page: 2, Slot: 1}, {Page: 2, Slot: 2},
		{Page: 5, Slot: 7}, {Page: 7, Slot: 0},
	}
	if share, pages := partitionHits(hits, PartitionSpec{}); len(share) != len(hits) || pages != 5 {
		t.Fatalf("no partition: %d hits on %d pages, want %d on 5", len(share), pages, len(hits))
	}
	for of := 1; of <= 8; of++ {
		var cat []heap.RID
		owner := map[int32]int{}
		for idx := 0; idx < of; idx++ {
			share, pages := partitionHits(hits, PartitionSpec{Index: idx, Of: of})
			distinct := map[int32]bool{}
			for _, rid := range share {
				distinct[rid.Page] = true
			}
			if pages != len(distinct) {
				t.Fatalf("of=%d share %d: counted %d pages, holds %d", of, idx, pages, len(distinct))
			}
			for _, rid := range share {
				if prev, dup := owner[rid.Page]; dup && prev != idx {
					t.Fatalf("of=%d: page %d in shares %d and %d", of, rid.Page, prev, idx)
				}
				owner[rid.Page] = idx
			}
			cat = append(cat, share...)
		}
		if len(cat) != len(hits) {
			t.Fatalf("of=%d: concatenation has %d hits, want %d", of, len(cat), len(hits))
		}
		for i := range hits {
			if cat[i] != hits[i] {
				t.Fatalf("of=%d: concatenation diverges at %d: %v vs %v", of, i, cat[i], hits[i])
			}
		}
	}
}

// TestSummaryIndexScanPartitionedConcatenation runs the parallel shares
// of a sorted fetch one by one and checks their concatenation is the
// serial sorted run, row for row.
func TestSummaryIndexScanPartitionedConcatenation(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 48)
	serial := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
	serial.SortedFetch = true
	want, err := Collect(nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	const of = 3
	var got []*Row
	for idx := 0; idx < of; idx++ {
		part := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
		part.SortedFetch = true
		part.Part = PartitionSpec{Index: idx, Of: of}
		rows, err := Collect(nil, part)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
	}
	if len(got) != len(want) {
		t.Fatalf("shares yield %d rows, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Tuple.OID != want[i].Tuple.OID {
			t.Fatalf("row %d diverges: OID %d vs %d", i, got[i].Tuple.OID, want[i].Tuple.OID)
		}
	}
}

// TestSummaryIndexScanBudget exercises the hit-list budget charge of
// sorted fetch: a probe whose hit list exceeds the buffered-rows limit
// fails Open with a typed budget error, and the failed Open leaves no
// outstanding charges. A sufficient budget is fully released at Close.
// Ordered fetch holds no hit list: the tight budget returns every row.
func TestSummaryIndexScanBudget(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 16)
	tight := NewBudget(2, 0, 0) // Disease >= 0 collects all 16 hits
	scan := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0)
	scan.SortedFetch = true
	_, err := Collect(NewQueryCtx(nil, tight, 1), scan)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Op != "SummaryIndexScan" {
		t.Fatalf("err = %v, want *BudgetError from SummaryIndexScan", err)
	}
	if tight.BufferedRows() != 0 {
		t.Errorf("failed Open leaked %d buffered rows", tight.BufferedRows())
	}

	roomy := NewBudget(100, 0, 0)
	ok := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0)
	ok.SortedFetch = true
	rows, err := Collect(NewQueryCtx(nil, roomy, 1), ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	if roomy.BufferedRows() != 0 {
		t.Errorf("Close leaked %d buffered rows", roomy.BufferedRows())
	}

	for _, desc := range []bool{false, true} {
		ordered := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0)
		ordered.Descending = desc
		rows, err := Collect(NewQueryCtx(nil, tight, 1), ordered)
		if err != nil {
			t.Fatalf("ordered (desc=%v): %v", desc, err)
		}
		if len(rows) != 16 || tight.BufferedRows() != 0 {
			t.Fatalf("ordered (desc=%v): %d rows, %d buffered rows; want 16 and none", desc, len(rows), tight.BufferedRows())
		}
	}
}

// TestCollectHitsPeriodicCheck pins the sorted fetch's fill loop: its
// check runs every hitCheckEvery collected hits plus once at the end, a
// clean run collects exactly what the index streams, and a failing check
// stops the walk at once. Through Open, a budget error or a cancel that
// lands mid-walk aborts it with the charge already booked returned.
func TestCollectHitsPeriodicCheck(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 600)
	var calls []int
	cur := sIdx.Cursor("Disease", index.OpGe, 0, false)
	got, err := collectHits(&cur, func(collected int) error {
		calls = append(calls, collected)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sIdx.Search("Disease", index.OpGe, 0)
	if len(got) != 600 || len(got) != len(want) {
		t.Fatalf("collected %d hits, Search found %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d diverges: %v vs %v", i, got[i], want[i])
		}
	}
	if wantCalls := []int{hitCheckEvery, 2 * hitCheckEvery, 600}; fmt.Sprint(calls) != fmt.Sprint(wantCalls) {
		t.Fatalf("check calls = %v, want %v", calls, wantCalls)
	}

	// An erroring check surfaces verbatim: one invocation, no list.
	stop := errors.New("stop the walk")
	fired := 0
	cur = sIdx.Cursor("Disease", index.OpGe, 0, false)
	if hits, err := collectHits(&cur, func(int) error { fired++; return stop }); !errors.Is(err, stop) || hits != nil || fired != 1 {
		t.Fatalf("aborted walk = (%d hits, %v) after %d checks, want (0, stop) after 1", len(hits), err, fired)
	}

	// The second check (512 hits) fails: over the budget, or cancelled
	// on the query's third poll (Open polls once, the first check once).
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		budget *Budget
		want   error
	}{
		{"budget", nil, NewBudget(300, 0, 0), ErrBudgetExceeded},
		{"cancel", &cancelOnPoll{Context: context.Background(), polls: 2}, NewBudget(1000, 0, 0), context.Canceled},
	} {
		scan := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0)
		scan.SortedFetch = true
		err := scan.Open(NewQueryCtx(tc.ctx, tc.budget, 1))
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: Open = %v, want %v", tc.name, err, tc.want)
		}
		if n := tc.budget.BufferedRows(); n != 0 || scan.hits != nil {
			t.Fatalf("%s: aborted Open left %d buffered rows and %d hits", tc.name, n, len(scan.hits))
		}
		if rows, _, _ := tc.budget.ChargeTotals(); rows != hitCheckEvery {
			t.Fatalf("%s: %d rows ever charged, want the first check's %d", tc.name, rows, hitCheckEvery)
		}
		scan.Close()
	}
}

// cancelOnPoll is a context that reports cancellation from its
// (polls+1)th Err call on.
type cancelOnPoll struct {
	context.Context
	polls int
}

func (c *cancelOnPoll) Err() error {
	if c.polls == 0 {
		return context.Canceled
	}
	c.polls--
	return nil
}

// TestLeavesOpenCancelled: every leaf polls the context it is handed at
// Open, so an already-cancelled query fails there — before probing or
// materializing anything — with the bare context error.
func TestLeavesOpenCancelled(t *testing.T) {
	f, sIdx, bIdx := indexedFixture(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, leaf := range []Operator{
		summaryScan(f.r, "r"),
		NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0),
		NewBaselineIndexScan(f.r, "r", bIdx, "Disease", index.OpGe, 0),
		NewSliceIter(f.r.Schema, nil),
	} {
		if err := leaf.Open(NewQueryCtx(ctx, nil, 1)); err != context.Canceled {
			t.Errorf("%s: Open = %v, want the bare context.Canceled", OpName(leaf), err)
		}
		leaf.Close()
	}
}
