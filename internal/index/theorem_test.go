package index

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/pager"
)

// TestSummaryBTreeComplexityBounds checks the Section 4.1.3 theorem
// empirically via page-access counts: equality search, annotation-update
// (delete + re-insert of one label), and object insertion all grow
// logarithmically in kN. Growing N by 16x must grow the per-operation
// page count by roughly log factor, far below 16x (the linear bound).
func TestSummaryBTreeComplexityBounds(t *testing.T) {
	const k = 4
	labels := []string{"Disease", "Anatomy", "Behavior", "Other"}

	measure := func(n int) (search, update, insert float64) {
		var acct pager.Accountant
		x := NewSummaryBTree(&acct, "C")
		rng := rand.New(rand.NewSource(42))
		counts := make([]map[string]int, n)
		for i := 0; i < n; i++ {
			counts[i] = map[string]int{}
			for _, l := range labels {
				counts[i][l] = rng.Intn(900)
			}
			x.IndexObject(classifierObj(int64(i), counts[i]), heap.RID{Page: int32(i)})
		}
		const ops = 200
		acct.Reset()
		for i := 0; i < ops; i++ {
			// Probe a random unique-ish key region; count only descent
			// costs by searching rare values.
			c := x.Cursor("Disease", OpEq, rng.Intn(900), false)
			c.Next()
			c.Close()
		}
		search = float64(acct.Stats().Total()) / ops

		acct.Reset()
		for i := 0; i < ops; i++ {
			oi := rng.Intn(n)
			old := counts[oi]["Disease"]
			x.UpdateLabel("Disease", old, old+1, heap.RID{Page: int32(oi)})
			counts[oi]["Disease"] = old + 1
		}
		update = float64(acct.Stats().Total()) / ops

		acct.Reset()
		for i := 0; i < ops; i++ {
			x.IndexObject(classifierObj(int64(n+i), counts[rng.Intn(n)]), heap.RID{Page: int32(n + i)})
		}
		insert = float64(acct.Stats().Total()) / ops
		return
	}

	s1, u1, i1 := measure(2000)
	s2, u2, i2 := measure(32000) // 16x more objects

	check := func(name string, small, big float64) {
		t.Helper()
		growth := big / math.Max(small, 1)
		// Logarithmic: log_B(16·kN)/log_B(kN) is < 2 for any realistic
		// B; allow 3x headroom for node-occupancy noise. Linear growth
		// would be 16x.
		if growth > 3 {
			t.Errorf("%s grows superlogarithmically: %.1f -> %.1f pages (%.1fx)", name, small, big, growth)
		}
		t.Logf("%s: %.1f pages at 2K objects, %.1f at 32K (%.2fx for 16x data)", name, small, big, growth)
	}
	check("equality search", s1, s2)
	check("annotation update (O(2 log kN))", u1, u2)
	check("object insertion (O(k log kN))", i1, i2)

	// The k factor: inserting a k-label object costs ~k single-label
	// updates' tree work.
	if i2 < u2 {
		t.Errorf("k-label insert (%0.1f) should cost at least one label update (%0.1f)", i2, u2)
	}
}
