package optimizer

import (
	"fmt"
	"testing"

	"repro/internal/plan"
)

// stubNode is a minimal plan.Node for cache bookkeeping tests.
type stubNode struct{ plan.Node }

func TestPlanCacheLRUAndCounters(t *testing.T) {
	c := NewPlanCache(2)
	a, b, d := &stubNode{}, &stubNode{}, &stubNode{}

	if _, ok := c.Get("a", 1); ok {
		t.Fatalf("empty cache hit")
	}
	c.Put("a", 1, a)
	c.Put("b", 1, b)
	if got, ok := c.Get("a", 1); !ok || got != plan.Node(a) {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	// "b" is now LRU; inserting "d" evicts it.
	c.Put("d", 1, d)
	if _, ok := c.Get("b", 1); ok {
		t.Fatalf("evicted entry still present")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Size != 2 || s.Capacity != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", s.Hits, s.Misses)
	}
}

func TestPlanCacheVersionInvalidation(t *testing.T) {
	c := NewPlanCache(4)
	n := &stubNode{}
	c.Put("q", 7, n)
	if _, ok := c.Get("q", 7); !ok {
		t.Fatalf("same-version lookup should hit")
	}
	// A catalog version bump makes the entry stale: the lookup misses,
	// the entry is dropped, and the invalidation is counted.
	if _, ok := c.Get("q", 8); ok {
		t.Fatalf("stale entry survived a catalog version bump")
	}
	s := c.Stats()
	if s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
	if s.Size != 0 {
		t.Fatalf("stale entry not removed: size = %d", s.Size)
	}
	// Even asking for the old version again must miss now.
	if _, ok := c.Get("q", 7); ok {
		t.Fatalf("removed entry resurrected")
	}
}

func TestPlanCacheNilSafe(t *testing.T) {
	var c *PlanCache
	if _, ok := c.Get("x", 1); ok {
		t.Fatalf("nil cache hit")
	}
	c.Put("x", 1, &stubNode{})
	if s := c.Stats(); s != (PlanCacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	if NewPlanCache(0) != nil {
		t.Fatalf("NewPlanCache(0) should disable caching")
	}
}

func TestOptionsFingerprint(t *testing.T) {
	base := Options{}
	same := Options{}
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatalf("identical options disagree")
	}
	variants := []Options{
		{Disable: true},
		{NoSummaryIndex: true},
		{UseBaseline: true},
		{ForceJoin: "index"},
		{ForceFetch: "ordered"},
		{MaxParallelWorkers: 4},
	}
	seen := map[string]string{base.Fingerprint(): "zero"}
	for i, v := range variants {
		fp := v.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("variant %d collides with %s", i, prev)
		}
		seen[fp] = fmt.Sprintf("variant %d", i)
	}
	// The batch capacity is applied at execution, not planning: one
	// cached skeleton serves every MaxBatchSize.
	if (Options{MaxBatchSize: 1024}).Fingerprint() != base.Fingerprint() {
		t.Fatalf("MaxBatchSize must not split the plan cache")
	}
}
