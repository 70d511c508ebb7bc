// Plan cache: optimized logical plans keyed by normalized statement
// text (plus an options fingerprint), validated against the engine's
// catalog version. Repeated statements skip parsing and optimization
// and only rebind + compile (see plan.Rebind); any DDL, index creation,
// or stats refresh bumps the version and invalidates every prior entry
// at its next lookup, so a stale index-vs-scan decision never survives
// a catalog change.
package optimizer

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/plan"
)

// PlanCache is a bounded LRU of optimized plan skeletons. Safe for
// concurrent use. Cached skeletons are immutable: executions rebind a
// fresh copy per run and never mutate the stored tree.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, invalidations, evictions int64
}

type cacheEntry struct {
	key     string
	version uint64
	root    plan.Node
}

// PlanCacheStats is a point-in-time snapshot of cache telemetry.
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewPlanCache builds a cache holding at most capacity plans;
// capacity <= 0 returns nil (caching disabled — a nil *PlanCache is
// safe to call and never hits).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached plan for key if present and optimized under
// the same catalog version. A version mismatch removes the entry and
// counts as an invalidation (and a miss).
func (c *PlanCache) Get(key string, version uint64) (plan.Node, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.version != version {
		c.lru.Remove(el)
		delete(c.entries, key)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.root, true
}

// Put stores an optimized plan under key at the given catalog version,
// evicting the least recently used entry when full.
func (c *PlanCache) Put(key string, version uint64, root plan.Node) {
	if c == nil || root == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.version = version
		e.root = root
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, version: version, root: root})
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Size:          c.lru.Len(),
		Capacity:      c.cap,
	}
}

// Fingerprint renders every Options field that shapes the optimized
// plan; it is appended to the statement text in the cache key so the
// same SQL under different ablation knobs never shares a plan.
// Execution-only fields (Budget, Collector, MaxBatchSize) are
// deliberately excluded: they are applied at compile/run time, which
// happens per execution.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("%t|%t|%t|%t|%t|%t|%s|%s|%s|%d|%d",
		o.Disable, o.DisableRules, o.NoSummaryIndex, o.UseBaseline,
		o.BaselineReconstruct, o.ConventionalPointers,
		o.ForceJoin, o.ForceFetch, o.ForceSort, o.SortRunLen, o.MaxParallelWorkers)
}

// Rebind re-anchors a cached plan skeleton in the caller's current
// epoch via env (see plan.Rebind).
func Rebind(root plan.Node, env *Env) (plan.Node, error) {
	return plan.Rebind(root, plan.RebindEnv{
		Table:         env.Cat.Table,
		SummaryIndex:  env.SummaryIdx,
		BaselineIndex: env.BaselineIdx,
	})
}
