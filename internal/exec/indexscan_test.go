package exec

import (
	"context"
	"errors"
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
	// Ordered mode counts its distinct pages from the hit list, which
	// Close drops: sample before Close, as the stats layer does.
	ordered := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
	if err := ordered.Open(nil); err != nil {
		t.Fatal(err)
	}
	if err := drain(nil, ordered, func(*Row) error { return nil }); err != nil {
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

// TestOrderedFetchCountsPagesOnlyWhenSampled: an ordered scan that is
// not instrumented builds no set of the pages its hit list addresses —
// its Open allocates what the index probe does, far less than the set
// would add — and FetchStats, sampled after the drain, counts them.
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
	probe := allocated(func() {
		hits, _ = sIdx.SearchWithCheck("Disease", index.OpGe, 1, func(int) error { return nil })
	})
	if len(hits) < 2000 {
		t.Fatalf("fixture yields %d hits, want a few thousand", len(hits))
	}
	set := allocated(func() { distinctPageCount(hits) })
	scan := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 1)
	open := allocated(func() {
		if err := scan.Open(nil); err != nil {
			t.Fatal(err)
		}
	})
	if open > probe+set/2 {
		t.Fatalf("Open of %d hits allocated %d bytes; the probe takes %d and a page set %d", len(hits), open, probe, set)
	}
	if err := drain(nil, scan, func(*Row) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if fs := scan.FetchStats(); fs.DistinctPages == 0 || fs.DistinctPages != int64(distinctPageCount(hits)) {
		t.Fatalf("sampled distinct pages = %d, want %d", fs.DistinctPages, distinctPageCount(hits))
	}
	scan.Close()
}

// TestPartitionHitsProperties checks the page-boundary partitioner: for
// any share count, concatenating the shares in partition order is
// exactly the input, and no data page appears in two shares (the
// no-frame-contention property of the parallel sorted fetch).
func TestPartitionHitsProperties(t *testing.T) {
	hits := []heap.RID{
		{Page: 0, Slot: 0}, {Page: 0, Slot: 3}, {Page: 1, Slot: 1},
		{Page: 2, Slot: 0}, {Page: 2, Slot: 1}, {Page: 2, Slot: 2},
		{Page: 5, Slot: 7}, {Page: 7, Slot: 0},
	}
	for of := 2; of <= 8; of++ {
		var cat []heap.RID
		owner := map[int32]int{}
		for idx := 0; idx < of; idx++ {
			share := partitionHits(hits, PartitionSpec{Index: idx, Of: of})
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

// TestSummaryIndexScanBudget exercises the hit-list budget charge: a
// probe whose materialized hit list exceeds the buffered-rows limit
// fails Open with a typed budget error, and the failed Open leaves no
// outstanding charges. A sufficient budget is fully released at Close.
func TestSummaryIndexScanBudget(t *testing.T) {
	f, sIdx, _ := indexedFixture(t, 16)
	tight := NewBudget(2, 0, 0) // Disease >= 0 collects all 16 hits
	scan := NewSummaryIndexScan(f.r, "r", sIdx, "Disease", index.OpGe, 0)
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
