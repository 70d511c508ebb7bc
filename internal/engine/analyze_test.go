package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
)

// The acceptance scenario: EXPLAIN ANALYZE on a summary-predicate query
// renders every operator with its cost-model estimate next to the
// measured rows, Next calls, wall time, and page/node I/O.
func TestExplainAnalyzeSummaryPredicate(t *testing.T) {
	db, _ := testDB(t, 40)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	q := `SELECT id, name FROM Birds r
	      WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
	      ORDER BY name`
	ap, err := db.ExplainAnalyze(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Result.Rows) == 0 || len(ap.Result.Rows) != len(plain.Rows) {
		t.Fatalf("analyzed run returned %d rows, plain run %d", len(ap.Result.Rows), len(plain.Rows))
	}

	out := ap.String()
	for _, want := range []string{
		"est rows=", "actual rows=", "nexts=", "time=", "io self=", "Execution: rows=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}

	// Root actuals match the result; the whole tree executed.
	if ap.Root.Stats == nil {
		t.Fatalf("root has no runtime stats:\n%s", out)
	}
	if got := ap.Root.Stats.Rows; got != int64(len(ap.Result.Rows)) {
		t.Errorf("root actual rows = %d, result has %d", got, len(ap.Result.Rows))
	}
	executed := 0
	ap.Root.Walk(func(n *optimizer.AnalyzedNode) {
		if n.Stats != nil {
			executed++
			if n.Stats.NextCalls < n.Stats.Rows {
				t.Errorf("%s: %d Next calls produced %d rows",
					n.Node.Describe(), n.Stats.NextCalls, n.Stats.Rows)
			}
		}
	})
	if executed < 2 {
		t.Errorf("only %d executed operators annotated:\n%s", executed, out)
	}
	if ap.Wall <= 0 {
		t.Errorf("non-positive wall time %v", ap.Wall)
	}
	if ap.IO.PageReads <= 0 {
		t.Errorf("statement-level I/O delta empty: %+v", ap.IO)
	}
	// The predicate took the index path, and the index probe surfaced
	// B-Tree node accesses in its operator line.
	if !strings.Contains(out, "SummaryBTreeScan") {
		t.Fatalf("plan does not use the summary index:\n%s", out)
	}
	sawNodes := false
	ap.Root.Walk(func(n *optimizer.AnalyzedNode) {
		if n.Stats != nil && n.Stats.IO.NodeAccesses() > 0 {
			sawNodes = true
		}
	})
	if !sawNodes {
		t.Errorf("no operator recorded B-Tree node accesses:\n%s", out)
	}
}

// The instrumented run must return exactly what the plain run returns —
// the recorders are transparent decorators.
func TestExplainAnalyzeMatchesPlainQuery(t *testing.T) {
	db, _ := testDB(t, 25)
	for _, q := range []string{
		`SELECT id FROM Birds b WHERE b.family = 'Corvidae'`,
		`SELECT family FROM Birds b GROUP BY family`,
		`SELECT DISTINCT family FROM Birds b ORDER BY family`,
		`SELECT r.id, s.id FROM Birds r, Birds s WHERE r.family = s.family LIMIT 10`,
	} {
		ap, err := db.ExplainAnalyze(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		plain, err := db.Query(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(ap.Result.Rows) != len(plain.Rows) {
			t.Errorf("%s: analyzed %d rows, plain %d", q, len(ap.Result.Rows), len(plain.Rows))
		}
	}
}

func TestExplainAnalyzeRejectsNonSelect(t *testing.T) {
	db, _ := testDB(t, 5)
	if _, err := db.ExplainAnalyze(`ALTER TABLE Birds DROP ClassBird1`, nil); err == nil {
		t.Fatal("expected error for non-SELECT statement")
	}
}

func TestMetricsCounters(t *testing.T) {
	db, _ := testDB(t, 20)
	base := db.Metrics()

	for i := 0; i < 3; i++ {
		if _, err := db.Query(`SELECT id FROM Birds b`, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One cancellation (pre-cancelled context)...
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, slowJoinQuery, nil); err == nil {
		t.Fatal("pre-cancelled query succeeded")
	}
	// ...and one budget violation.
	tight := &optimizer.Options{Budget: exec.NewBudget(5, 0, 0)}
	if _, err := db.Query(`SELECT DISTINCT id FROM Birds`, tight); err == nil {
		t.Fatal("tight-budget query succeeded")
	}
	// EXPLAIN ANALYZE statements count as queries too.
	if _, err := db.ExplainAnalyze(`SELECT id FROM Birds b`, nil); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics()
	if got := m.Queries - base.Queries; got != 6 {
		t.Errorf("queries delta = %d, want 6", got)
	}
	if got := m.RowsReturned - base.RowsReturned; got != 4*20 {
		t.Errorf("rows delta = %d, want 80", got)
	}
	if got := m.Failures - base.Failures; got != 2 {
		t.Errorf("failures delta = %d, want 2", got)
	}
	if got := m.Cancellations - base.Cancellations; got != 1 {
		t.Errorf("cancellations delta = %d, want 1", got)
	}
	if got := m.BudgetFailures - base.BudgetFailures; got != 1 {
		t.Errorf("budget failures delta = %d, want 1", got)
	}
	var bucketSum int64
	for _, c := range m.LatencyCounts {
		bucketSum += c
	}
	if bucketSum != m.Queries {
		t.Errorf("latency buckets sum to %d, queries = %d", bucketSum, m.Queries)
	}
	if len(m.LatencyCounts) != len(m.LatencyBounds)+1 {
		t.Errorf("bucket shape: %d counts for %d bounds", len(m.LatencyCounts), len(m.LatencyBounds))
	}
	if m.TotalQueryTime <= 0 {
		t.Errorf("non-positive total query time %v", m.TotalQueryTime)
	}
	if m.IO.PageReads <= 0 {
		t.Errorf("metrics snapshot missing accountant I/O: %+v", m.IO)
	}
	for _, want := range []string{"queries=", "latency:", "io:"} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("Metrics.String missing %q:\n%s", want, m.String())
		}
	}
}

// TestSummariesAttachedAfterDataFilter checks that a propagating leaf
// fetches a summary set only for the rows its data-only selection keeps,
// for a SeqScan and for a Summary-BTree probe, serial and parallel, one
// row and 1024 rows per batch. A fetch is an OID-index probe plus one
// R_SummaryStorage page read, so against the same serial plan run
// WITHOUT SUMMARIES, EXPLAIN ANALYZE's heap page reads (page reads that
// are not B-Tree node reads: data pages, which every cell reads alike,
// and storage pages) must grow by exactly the rows out, where fetching
// at the leaf grows them by the rows the leaf read. Node reads are left
// out because a parallel index scan repeats its probe in every worker.
func TestSummariesAttachedAfterDataFilter(t *testing.T) {
	db, _ := testDBWithConfig(t, 400, Config{PageCap: 16})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	heapReads := func(ap *AnalyzedPlan) int64 { return ap.IO.PageReads - ap.IO.NodeReads }
	for _, tc := range []struct {
		name, q, leaf, parOp string
		rowsIn               int64
	}{
		{"seqscan", `SELECT id, name FROM Birds b WHERE b.id > 396`, "SeqScan", "Gather", 400},
		{"index", `SELECT id, name FROM Birds r
		  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2 AND r.id <= 20
		  ORDER BY name LIMIT 5`, "SummaryBTreeScan", "Gather", 80},
	} {
		serial := &optimizer.Options{MaxParallelWorkers: 1}
		without, err := db.ExplainAnalyze(tc.q+" WITHOUT SUMMARIES", serial)
		if err != nil {
			t.Fatal(err)
		}
		withPlan, err := db.Explain(tc.q, serial)
		if err != nil {
			t.Fatal(err)
		}
		if p := plan.Explain(without.Result.Plan); p != withPlan || !strings.Contains(p, tc.leaf) || !strings.Contains(p, "Select σ") {
			t.Fatalf("%s: want one plan with a data σ over a %s:\n%s\nvs WITHOUT SUMMARIES\n%s", tc.name, tc.leaf, withPlan, p)
		}
		for _, workers := range []int{1, 4} {
			for _, capacity := range []int{1, 1024} {
				cell := fmt.Sprintf("%s workers=%d capacity=%d", tc.name, workers, capacity)
				with, err := db.ExplainAnalyze(tc.q, &optimizer.Options{MaxParallelWorkers: workers, MaxBatchSize: capacity})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if p := plan.Explain(with.Result.Plan); workers > 1 && !strings.Contains(p, tc.parOp) {
					t.Fatalf("%s: plan lacks %q:\n%s", cell, tc.parOp, p)
				}
				out := int64(len(with.Result.Rows))
				if out == 0 || out*10 > tc.rowsIn || int64(len(without.Result.Rows)) != out {
					t.Fatalf("%s: %d rows out (%d without summaries) of %d read", cell, out, len(without.Result.Rows), tc.rowsIn)
				}
				for _, row := range with.Result.Rows {
					if row.Tuple.Summaries.Get("ClassBird1") == nil {
						t.Fatalf("%s: row %s carries no summaries", cell, row.Tuple)
					}
				}
				if fetched := heapReads(with) - heapReads(without); fetched != out {
					t.Errorf("%s: %d summary-storage page reads, want one per row out (%d), not per row read (%d)",
						cell, fetched, out, tc.rowsIn)
				}
			}
		}
	}
}

// TestLimitRowGoalStopsTheLeaf checks that a LIMIT's row goal reaches
// its leaf. A top-k in Summary-BTree order, at a few dozen and at a few
// thousand hits, serial and with four workers allowed, one row and 1024
// rows per batch, must fetch k rows at the leaf and k summary sets (the
// heap page reads beyond the leaf's one data-page pin per hit), and
// read the same pages at capacity 1024 as at capacity 1. A LIMIT over a
// selective data σ on a propagating SeqScan must grow its batches past
// the goal-sized first one and return the capacity-1 rows. Under a Sort,
// a GroupBy or a Gather the leaf reads full-capacity batches, as
// without a LIMIT.
func TestLimitRowGoalStopsTheLeaf(t *testing.T) {
	db, oids := testDBWithConfig(t, 3000, Config{PageCap: 16})
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	// Bird 5i+4 has 4 disease annotations; two more put 40 birds at 6,
	// the only ones at 5 or above. 2,400 birds have at least one.
	for i := 0; i < 40; i++ {
		mustAnnotate(t, db, oids[5*i+3], annText("Disease", 900+i))
		mustAnnotate(t, db, oids[5*i+3], annText("Disease", 950+i))
	}
	leaf := func(ap *AnalyzedPlan) *exec.OpStats {
		var s *exec.OpStats
		ap.Root.Walk(func(n *optimizer.AnalyzedNode) {
			if len(n.Children) == 0 {
				s = n.Stats
			}
		})
		return s
	}
	heapReads := func(ap *AnalyzedPlan) int64 { return ap.IO.PageReads - ap.IO.NodeReads }
	run := func(q string, workers, capacity int) *AnalyzedPlan {
		t.Helper()
		ap, err := db.ExplainAnalyze(q, &optimizer.Options{MaxParallelWorkers: workers, MaxBatchSize: capacity})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return ap
	}

	const k = 20
	tree := db.SummaryIndex("Birds", "ClassBird1").Tree()
	minLeaf := tree.Order() / 2
	walkBound := int64(tree.Height() + 1 + (k-1+minLeaf-1)/minLeaf + 1)
	birds, err := db.Table("Birds")
	if err != nil {
		t.Fatal(err)
	}
	before := db.Accountant().Stats().NodeReads
	birds.GetSummaries(oids[0])
	lookupNodes := db.Accountant().Stats().NodeReads - before
	for _, tc := range []struct {
		name     string
		min, hit int
	}{{"dozens", 5, 40}, {"thousands", 1, 2400}} {
		pred := fmt.Sprintf(`r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') >= %d`, tc.min)
		if n := len(run(`SELECT id FROM Birds r WHERE `+pred+` WITHOUT SUMMARIES`, 1, 1024).Result.Rows); n != tc.hit {
			t.Fatalf("%s: %d hits, want %d", tc.name, n, tc.hit)
		}
		q := `SELECT id, name FROM Birds r WHERE ` + pred +
			fmt.Sprintf(` ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC LIMIT %d`, k)
		want := resultStrings(run(q, 1, 1).Result)
		for _, workers := range []int{1, 4} {
			reads := map[int]int64{}
			for _, capacity := range []int{1, 1024} {
				cell := fmt.Sprintf("%s workers=%d capacity=%d", tc.name, workers, capacity)
				with := run(q, workers, capacity)
				if p := plan.Explain(with.Result.Plan); !strings.Contains(p, "eliminated: index order") || !strings.Contains(p, "fetch=ordered") {
					t.Fatalf("%s: want the index order to stand in for the sort:\n%s", cell, p)
				}
				if got := resultStrings(with.Result); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("%s: rows differ from the serial capacity-1 run:\n%s\nvs\n%s", cell, got, want)
				}
				s := leaf(with)
				if s.Rows != k || s.PagesPinned != k {
					t.Errorf("%s: leaf fetched %d rows in %d data-page pins, want %d", cell, s.Rows, s.PagesPinned, k)
				}
				fetched := heapReads(with) - s.PagesPinned
				if fetched != k {
					t.Errorf("%s: %d summary-storage page reads, want %d", cell, fetched, k)
				}
				reads[capacity] = with.IO.PageReads
				// The index walk — the query's node reads less those of its k
				// summary-set lookups — reads the descent, the leaves holding
				// the k entries (each non-root leaf holds at least order/2),
				// and one more node for a step back over a parent boundary:
				// not every leaf of the range.
				if walk := with.IO.NodeReads - fetched*lookupNodes; walk > walkBound {
					t.Errorf("%s: top-%d walk read %d index nodes, want at most %d", cell, k, walk, walkBound)
				}
			}
			if reads[1024] != reads[1] {
				t.Errorf("%s workers=%d: %d page reads at capacity 1024, %d at capacity 1", tc.name, workers, reads[1024], reads[1])
			}
		}
		// WITHOUT SUMMARIES the eliminated sort evaluates no $ key, so
		// the same rows come back with no summary set read for them:
		// the only heap reads are the leaf's data-page pins, and the only
		// node reads are the index walk's.
		bare := run(q+` WITHOUT SUMMARIES`, 1, 1024)
		if len(bare.Result.Rows) != k {
			t.Fatalf("%s WITHOUT SUMMARIES: %d rows, want %d", tc.name, len(bare.Result.Rows), k)
		}
		for i, row := range bare.Result.Rows {
			if got := row.Tuple.String() + " / " + row.Tuple.Summaries.String(); got != strings.Split(want[i], " / ")[0]+" / {}" {
				t.Fatalf("%s WITHOUT SUMMARIES: row %d is %s, want the data of %s", tc.name, i, got, want[i])
			}
		}
		if fetched := heapReads(bare) - leaf(bare).PagesPinned; fetched != 0 || bare.IO.NodeReads > walkBound {
			t.Errorf("%s WITHOUT SUMMARIES: %d summary-storage page reads and %d index node reads, want 0 and at most %d",
				tc.name, fetched, bare.IO.NodeReads, walkBound)
		}
	}

	// The σ keeps 5 rows of 3,000 past id 1500: the leaf's first batch of
	// 5 keeps none, and it must double its way on to them.
	selective := `SELECT id, name FROM Birds b WHERE b.id > 1500 AND b.family = 'Corvidae' LIMIT 5`
	want := resultStrings(run(selective, 1, 1).Result)
	with := run(selective, 1, 1024)
	if p := plan.Explain(with.Result.Plan); !strings.Contains(p, "SeqScan") || !strings.Contains(p, "Select σ") || strings.Contains(p, "Gather") {
		t.Fatalf("selective: want a serial σ over a SeqScan:\n%s", p)
	}
	if got := resultStrings(with.Result); len(want) != 5 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("selective: rows differ from the capacity-1 run:\n%s\nvs\n%s", got, want)
	}
	if s := leaf(with); s.NextCalls < 3 || s.Rows <= 1500 || s.Rows >= 3000 {
		t.Errorf("selective: leaf read %d rows in %d batches; want it to grow past its first batch and stop short of the table", s.Rows, s.NextCalls)
	}

	// A breaker or a Gather between the LIMIT and the leaf drops the
	// goal: every leaf batch but each partition's last is full.
	for _, tc := range []struct {
		name, q, op string
		workers     int
	}{
		{"sort", `SELECT id, name FROM Birds b ORDER BY name LIMIT 5`, "Sort[", 1},
		{"group", `SELECT family, count(*) FROM Birds b GROUP BY family LIMIT 2`, "GroupBy", 1},
		{"gather", `SELECT id, name FROM Birds b WHERE b.family = 'Corvidae' LIMIT 5`, "Gather", 4},
	} {
		ap := run(tc.q, tc.workers, 1024)
		if p := plan.Explain(ap.Result.Plan); !strings.Contains(p, tc.op) {
			t.Fatalf("%s: plan lacks %q:\n%s", tc.name, tc.op, p)
		}
		s := leaf(ap)
		if full := (s.Rows+1023)/1024 + 2*s.Opens; s.NextCalls > full {
			t.Errorf("%s: leaf made %d calls for %d rows over %d opens; full batches take at most %d",
				tc.name, s.NextCalls, s.Rows, s.Opens, full)
		}
	}
}
