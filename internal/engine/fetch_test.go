package engine

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/index"
	"repro/internal/optimizer"
	"repro/internal/pager"
	"repro/internal/plan"
)

// rowStrings renders a result's tuples for order-sensitive comparison.
func rowStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.Tuple.String()
	}
	return out
}

// TestFetchModeDifferential is the end-to-end differential of the two
// index fetch paths: for every combination of buffer pool on/off and
// backward vs conventional pointers, forcing sorted and ordered fetch
// returns identical row multisets, and identical sequences once an
// ORDER BY pins the output order (the compensating Sort above the
// page-ordered fetch).
func TestFetchModeDifferential(t *testing.T) {
	configs := map[string]Config{
		"nopool": {PageCap: 8},
		"pool":   {PageCap: 8, BufferPoolPages: pager.MinPoolFrames},
	}
	for cfgName, cfg := range configs {
		db, _ := testDBWithConfig(t, 60, cfg)
		if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
			t.Fatal(err)
		}
		for _, conv := range []bool{false, true} {
			run := func(fetch, q string) []string {
				t.Helper()
				res, err := db.Query(q, &optimizer.Options{
					ForceFetch: fetch, ConventionalPointers: conv})
				if err != nil {
					t.Fatalf("%s conv=%v %s: %v", cfgName, conv, fetch, err)
				}
				if !strings.Contains(plan.Explain(res.Plan), "fetch="+fetch) {
					t.Fatalf("%s conv=%v: plan ignored ForceFetch=%s:\n%s",
						cfgName, conv, fetch, plan.Explain(res.Plan))
				}
				return rowStrings(res)
			}

			// Bag semantics: no ORDER BY, so only the multisets must match.
			bagQ := `SELECT id, name FROM Birds r
			  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3`
			sorted, ordered := run("sorted", bagQ), run("ordered", bagQ)
			if len(sorted) != len(ordered) {
				t.Fatalf("%s conv=%v: sorted %d rows, ordered %d", cfgName, conv, len(sorted), len(ordered))
			}
			a := append([]string(nil), sorted...)
			b := append([]string(nil), ordered...)
			sort.Strings(a)
			sort.Strings(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s conv=%v: multisets diverge at %d:\n%s\nvs\n%s", cfgName, conv, i, a[i], b[i])
				}
			}

			// Pinned order: the Sort above the page-ordered fetch must
			// restore exactly the sequence the ordered path streams.
			ordQ := bagQ + ` ORDER BY name`
			s2, o2 := run("sorted", ordQ), run("ordered", ordQ)
			if len(s2) != len(o2) {
				t.Fatalf("%s conv=%v: ordered-query row counts diverge", cfgName, conv)
			}
			for i := range s2 {
				if s2[i] != o2[i] {
					t.Fatalf("%s conv=%v: ordered results diverge at row %d:\n%s\nvs\n%s",
						cfgName, conv, i, s2[i], o2[i])
				}
			}
		}
	}
}

// TestFetchDecisionCostBased checks the optimizer's order/fetch
// tradeoff. Without a pool every page is resident, so consuming the
// index's count order costs nothing extra: the Sort is eliminated and
// the scan fetches in order. With a small pool and a hit list spanning
// more distinct pages than the pool has frames, the random in-order
// fetch re-faults pages, and the optimizer keeps the Sort over a
// page-ordered fetch instead.
func TestFetchDecisionCostBased(t *testing.T) {
	q := `SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3
	  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`

	cold, _ := testDBWithConfig(t, 200, Config{PageCap: 2})
	if err := cold.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	out, err := cold.Explain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(eliminated: index order)") || !strings.Contains(out, "fetch=ordered") {
		t.Errorf("no pool: want sort elimination with ordered fetch, got:\n%s", out)
	}

	// 200 birds at PageCap 2 span 100 data pages; 2 in 5 birds match, so
	// the hit list touches far more pages than the 16-frame pool holds
	// and the in-order random fetch would re-fault most of them.
	pooled, _ := testDBWithConfig(t, 200, Config{PageCap: 2, BufferPoolPages: pager.MinPoolFrames})
	if err := pooled.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	tbl, err := pooled.Table("Birds")
	if err != nil {
		t.Fatal(err)
	}
	if pooled.BufferPool().Stats().Frames >= tbl.Data.Pages() {
		t.Fatalf("fixture too small: %d frames hold all %d pages",
			pooled.BufferPool().Stats().Frames, tbl.Data.Pages())
	}
	out, err = pooled.Explain(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "(eliminated") || !strings.Contains(out, "fetch=sorted") {
		t.Errorf("small pool: want Sort kept over sorted fetch, got:\n%s", out)
	}
}

// TestSortedFetchReadsOnlyPagesItReturns: a LIMIT 5 over a page-ordered
// Summary-BTree fetch on a cold 16-frame pool reads, besides the index
// probe's nodes, exactly the data pages its five rows come from. The
// fetch reads a page when it reaches the page's run, never ahead of it.
func TestSortedFetchReadsOnlyPagesItReturns(t *testing.T) {
	db, _ := testDBWithConfig(t, 200, Config{PageCap: 2, BufferPoolPages: pager.MinPoolFrames})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("Birds")
	if err != nil {
		t.Fatal(err)
	}
	idx, acct := db.SummaryIndex("Birds", "ClassBird1"), db.Accountant()
	hits := idx.Search("Disease", index.OpGe, 3)
	if pages := distinctPages(hits); pages <= 5+4 {
		t.Fatalf("fixture too small: %d hits on %d pages", len(hits), pages)
	}

	db.BufferPool().EvictAll()
	idx.Search("Disease", index.OpGe, 3) // warm the index: what the query reads past it is data
	before := acct.Stats()
	res, err := db.Query(`SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 3
	  LIMIT 5 WITHOUT SUMMARIES`, &optimizer.Options{ForceFetch: "sorted", MaxParallelWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	phys := acct.Stats().Sub(before).PhysReads
	if p := plan.Explain(res.Plan); !strings.Contains(p, "Limit") || !strings.Contains(p, "fetch=sorted") {
		t.Fatalf("want a LIMIT over a sorted fetch:\n%s", p)
	}
	var returned []heap.RID
	for _, row := range res.Rows {
		rid, ok := tbl.DiskTupleLoc(row.Tuple.OID)
		if !ok {
			t.Fatalf("row %s has no location", row.Tuple)
		}
		returned = append(returned, rid)
	}
	if len(returned) != 5 || phys != int64(distinctPages(returned)) {
		t.Fatalf("%d rows from %d data pages made %d physical reads past the index probe, want one per page",
			len(returned), distinctPages(returned), phys)
	}
}

// distinctPages counts the data pages a list of locations addresses.
func distinctPages(rids []heap.RID) int {
	seen := map[int32]bool{}
	for _, rid := range rids {
		seen[rid.Page] = true
	}
	return len(seen)
}

// TestFetchBudgetThroughEngine proves the hit-list budget charge
// surfaces through a full query: a per-query budget smaller than the
// probe's hit list fails with the typed sentinel, attributed to the
// index scan.
func TestFetchBudgetThroughEngine(t *testing.T) {
	db, _ := testDB(t, 60)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	// Disease = 2 hits 12 of 60 birds — few enough that the optimizer
	// takes the index path, more than the 5-row budget admits.
	_, err := db.Query(`SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2`,
		&optimizer.Options{Budget: exec.NewBudget(5, 0, 0)})
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	var be *exec.BudgetError
	if !errors.As(err, &be) || be.Op != "SummaryIndexScan" {
		t.Fatalf("err = %v, want *BudgetError from SummaryIndexScan", err)
	}
}

// TestParallelSortedFetchMatchesSerial runs a sorted-fetch index scan
// under a worker pool: the page-boundary partitioning of the sorted hit
// list must reproduce the serial run's exact row sequence (shares
// concatenate in partition order), not just its multiset.
func TestParallelSortedFetchMatchesSerial(t *testing.T) {
	db, _ := testDBWithConfig(t, 100, Config{PageCap: 4})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= 1`
	serial, err := db.Query(q, &optimizer.Options{MaxParallelWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.Query(q, &optimizer.Options{MaxParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(par.Plan), "Gather") {
		t.Skipf("cost model declined parallelism:\n%s", plan.Explain(par.Plan))
	}
	a, b := rowStrings(serial), rowStrings(par)
	if len(a) != len(b) {
		t.Fatalf("serial %d rows, parallel %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d diverges:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}
