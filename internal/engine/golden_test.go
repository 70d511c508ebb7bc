package engine

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/optimizer"
)

// wallTimeRe matches the volatile wall-time fields of EXPLAIN ANALYZE
// output; everything else (estimates, cardinalities, page/node I/O) is
// deterministic for a fixed dataset and asserted byte-for-byte.
var wallTimeRe = regexp.MustCompile(`time=[^ )\n]+`)

// compareGolden checks got against testdata/<name>.golden; set
// UPDATE_GOLDEN=1 to regenerate the files instead.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// goldenDB is the shared fixture for the formatting goldens: 40 birds
// with a Summary-BTree, so plans cover index scans, sorts, and limits.
func goldenDB(t *testing.T) *DB {
	t.Helper()
	db, _ := testDB(t, 40)
	if err := db.CreateSummaryIndex("Birds", "ClassBird1"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExplainGolden(t *testing.T) {
	db := goldenDB(t)
	for name, q := range map[string]string{
		"explain_index": `SELECT id, name FROM Birds r
		  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
		  ORDER BY name`,
		"explain_join": `SELECT r.id, s.id FROM Birds r, Birds s
		  WHERE r.family = s.family AND r.id < 5`,
		"explain_group": `SELECT family FROM Birds b GROUP BY family ORDER BY family LIMIT 2`,
	} {
		out, err := db.Explain(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareGolden(t, name, out)
	}
}

// TestParallelExplainGolden pins the rendering of parallel plans: the
// Gather exchange over a scan pipeline, the partial/final aggregation,
// and the parallel hash-join build. goldenDB's Birds table spans 3
// pages, so a worker cap of 4 yields a cost-chosen DOP of 3.
func TestParallelExplainGolden(t *testing.T) {
	db := goldenDB(t)
	opts := &optimizer.Options{MaxParallelWorkers: 4}
	for name, q := range map[string]string{
		"explain_parallel_scan":  `SELECT id FROM Birds b WHERE b.family = 'Corvidae'`,
		"explain_parallel_group": `SELECT family, count(*) FROM Birds b GROUP BY family`,
	} {
		out, err := db.Explain(q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareGolden(t, name, out)
	}
	join, err := db.Explain(`SELECT r.id, s.id FROM Birds r, Birds s WHERE r.family = s.family`,
		&optimizer.Options{MaxParallelWorkers: 4, ForceJoin: "hash"})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "explain_parallel_join", join)
}

// TestParallelSerialGoldenIdentity runs every serial golden query with
// an explicit worker cap of 1 and asserts the plans are byte-identical
// to the default (parallelization off) — the DOP=1 contract.
func TestParallelSerialGoldenIdentity(t *testing.T) {
	db := goldenDB(t)
	for _, q := range []string{
		`SELECT id, name FROM Birds r
		  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
		  ORDER BY name`,
		`SELECT r.id, s.id FROM Birds r, Birds s
		  WHERE r.family = s.family AND r.id < 5`,
		`SELECT family FROM Birds b GROUP BY family ORDER BY family LIMIT 2`,
	} {
		serial, err := db.Explain(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		capped, err := db.Explain(q, &optimizer.Options{MaxParallelWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if serial != capped {
			t.Errorf("MaxParallelWorkers=1 changes the plan:\n%s\nvs\n%s", capped, serial)
		}
	}
}

// TestParallelAnalyzeGolden pins EXPLAIN ANALYZE of a parallel
// aggregation and of a forced-hash join with a parallel build: the
// breaker's Gather node carries the per-worker row counts merged across
// the fragment's workers. A breaker's whole fragment executes inside
// its Open window, so the aggregation's I/O attribution is
// deterministic. The join's probe side is an exchange Gather whose
// workers read while the probe runs, so which operator's window sees
// their reads depends on scheduling: its per-operator I/O is masked,
// and the statement's total stays pinned.
func TestParallelAnalyzeGolden(t *testing.T) {
	db := goldenDB(t)
	ap, err := db.ExplainAnalyze(`SELECT family, count(*) FROM Birds b GROUP BY family`,
		&optimizer.Options{MaxParallelWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "analyze_parallel", wallTimeRe.ReplaceAllString(ap.String(), "time=<t>"))
	join, err := db.ExplainAnalyze(`SELECT r.id, s.id FROM Birds r, Birds s WHERE r.family = s.family`,
		&optimizer.Options{MaxParallelWorkers: 4, ForceJoin: "hash"})
	if err != nil {
		t.Fatal(err)
	}
	opIO := regexp.MustCompile(`io self=\S+ total=\S+?( nodes=\d+)?\)`)
	compareGolden(t, "analyze_parallel_join",
		opIO.ReplaceAllString(wallTimeRe.ReplaceAllString(join.String(), "time=<t>"), "io=<io>)"))

	// The same statement must return the same data as the serial plan.
	serial, err := db.Query(`SELECT family, count(*) FROM Birds b GROUP BY family`,
		&optimizer.Options{MaxParallelWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.Result.Rows) != len(serial.Rows) {
		t.Fatalf("parallel %d rows, serial %d", len(ap.Result.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		if ap.Result.Rows[i].Tuple.String() != serial.Rows[i].Tuple.String() {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestFetchModeGolden pins the rendering of both index fetch modes. A
// summary ORDER BY makes the optimizer consume the index's count order
// (Sort eliminated, fetch=ordered); the same predicate without it uses
// the page-ordered batch (fetch=sorted, covered by explain_index). The
// ANALYZE golden runs the analyze_index query under the ForceFetch
// ablation so the per-RID mode's counters stay pinned too.
func TestFetchModeGolden(t *testing.T) {
	db := goldenDB(t)
	ordered, err := db.Explain(`SELECT id FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
	  ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease')`, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "explain_fetch_ordered", ordered)

	ap, err := db.ExplainAnalyze(`SELECT id, name FROM Birds r
	  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
	  ORDER BY name LIMIT 3`, &optimizer.Options{ForceFetch: "ordered"})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "analyze_fetch_ordered", wallTimeRe.ReplaceAllString(ap.String(), "time=<t>"))
}

func TestExplainAnalyzeGolden(t *testing.T) {
	db := goldenDB(t)
	for name, q := range map[string]string{
		"analyze_index": `SELECT id, name FROM Birds r
		  WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = 2
		  ORDER BY name LIMIT 3`,
		"analyze_scan": `SELECT id FROM Birds b WHERE b.family = 'Corvidae'`,
	} {
		ap, err := db.ExplainAnalyze(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareGolden(t, name, wallTimeRe.ReplaceAllString(ap.String(), "time=<t>"))
	}
}
