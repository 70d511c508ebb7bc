package bench

import (
	"testing"
)

// TestFig24Smoke runs the vectorization figure at the quick scale —
// including its row-identity differential and the two bounds enforced
// on the headline scan (vectorFloor, vectorCeiling) — so make
// vector-stress and CI catch a batching regression without a full
// benchreport run.
func TestFig24Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("vectorization benchmark smoke skipped in -short mode")
	}
	h := NewHarness(QuickScale())
	table, err := Fig24Vectorized(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("figure has %d rows, want 3:\n%s", len(table.Rows), table)
	}
	t.Logf("\n%s", table)
}
