package bench

import (
	"testing"
)

// TestFig23Smoke drives one small cell of the Figure 23 server
// benchmark end-to-end — sessions, prepared statements, batch execute,
// batch ingest over real HTTP connections — and checks the plan cache
// actually served hits.
func TestFig23Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("server benchmark smoke skipped in -short mode")
	}
	ts, srv, db, err := fig23Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Close()
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	defer ts.Close()

	n, err := fig23Cell(ts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no statements completed in the timed window")
	}
	stats := db.PlanCacheStats()
	if stats.Hits == 0 {
		t.Errorf("plan cache saw no hits: %+v", stats)
	}
	if stats.HitRate() < 0.5 {
		t.Errorf("plan cache hit rate %.2f, want >= 0.5 for a repeated prepared statement", stats.HitRate())
	}
}
