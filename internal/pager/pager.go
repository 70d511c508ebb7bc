// Package pager provides page-level I/O accounting for the storage
// substrate. The engine is in-memory, but the paper's claims are about
// access paths — how many pages a plan touches — so every heap page and
// index node access is charged to an Accountant. Tests assert access-path
// properties against these counters instead of wall-clock time, and the
// benchmark harness can install a fault policy's per-page latency to
// model the paper's disk-resident setting.
package pager

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mvcc"
)

// Stats is a snapshot of I/O counters. NodeReads/NodeWrites are the
// subset of PageReads/PageWrites charged by B-Tree node accesses
// (descents and structure maintenance), so index traffic can be told
// apart from heap traffic in EXPLAIN ANALYZE output.
//
// PageReads/PageWrites/NodeReads/NodeWrites are LOGICAL counters: they
// count page accesses the storage layers requested, whether or not the
// page was cached. The remaining fields are PHYSICAL: they count buffer
// pool traffic (cache hits and misses, backing-store transfers, and
// evictions) and stay zero when the pool has no frame budget, so such
// runs render identically to the pre-pool engine.
type Stats struct {
	PageReads  int64
	PageWrites int64
	NodeReads  int64
	NodeWrites int64

	PhysReads   int64 `json:",omitempty"`
	PhysWrites  int64 `json:",omitempty"`
	CacheHits   int64 `json:",omitempty"`
	CacheMisses int64 `json:",omitempty"`
	Evictions   int64 `json:",omitempty"`

	// Deprecated: always zero — the pool reads a page only when a reader misses on it; kept only because benchmarks/harness/target.go reads it.
	Prefetched int64 `json:",omitempty"`
}

// Sub returns s - o, for measuring a single operation's cost.
func (s Stats) Sub(o Stats) Stats { return s.plus(o, -1) }

// Add returns s + o, for accumulating per-operation deltas.
func (s Stats) Add(o Stats) Stats { return s.plus(o, 1) }

// plus returns s + k·o.
func (s Stats) plus(o Stats, k int64) Stats {
	return Stats{
		PageReads:  s.PageReads + k*o.PageReads,
		PageWrites: s.PageWrites + k*o.PageWrites,
		NodeReads:  s.NodeReads + k*o.NodeReads,
		NodeWrites: s.NodeWrites + k*o.NodeWrites,

		PhysReads:   s.PhysReads + k*o.PhysReads,
		PhysWrites:  s.PhysWrites + k*o.PhysWrites,
		CacheHits:   s.CacheHits + k*o.CacheHits,
		CacheMisses: s.CacheMisses + k*o.CacheMisses,
		Evictions:   s.Evictions + k*o.Evictions,
	}
}

// Total returns reads + writes.
func (s Stats) Total() int64 { return s.PageReads + s.PageWrites }

// NodeAccesses returns the B-Tree node reads + writes.
func (s Stats) NodeAccesses() int64 { return s.NodeReads + s.NodeWrites }

// CacheAccesses returns the buffer-pool traffic total — zero exactly
// when no frame budget was involved, which callers use to gate cache
// rendering so output without one is byte-identical to the pre-pool
// engine.
func (s Stats) CacheAccesses() int64 {
	return s.CacheHits + s.CacheMisses + s.PhysReads + s.PhysWrites + s.Evictions
}

// String renders the logical counters (the cache counters have their own
// rendering at each observability surface, gated on being nonzero).
func (s Stats) String() string {
	if n := s.NodeAccesses(); n > 0 {
		return fmt.Sprintf("reads=%d writes=%d nodes=%d", s.PageReads, s.PageWrites, n)
	}
	return fmt.Sprintf("reads=%d writes=%d", s.PageReads, s.PageWrites)
}

// CacheString renders the physical/cache counters compactly:
// "hit=H miss=M phys=R+W evict=E".
func (s Stats) CacheString() string {
	return fmt.Sprintf("hit=%d miss=%d phys=%d+%d evict=%d",
		s.CacheHits, s.CacheMisses, s.PhysReads, s.PhysWrites, s.Evictions)
}

// Accountant tracks page I/O. The zero value is ready to use. All
// methods are safe for concurrent use: the counters and the fault
// policy are read and written atomically, so SetFaultPolicy may be
// called while readers are in flight.
type Accountant struct {
	reads  atomic.Int64
	writes atomic.Int64

	// nodeReads/nodeWrites mirror the subset of reads/writes charged
	// through ReadNode/WriteNode (B-Tree node accesses).
	nodeReads  atomic.Int64
	nodeWrites atomic.Int64

	// physReads/physWrites count backing-store transfers, and
	// cacheHits/cacheMisses/evictions count buffer-pool events. All are
	// charged by the attached BufferPool and stay zero without a budget.
	physReads   atomic.Int64
	physWrites  atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	evictions   atomic.Int64

	// fault, when non-nil, injects failures and latency into every
	// accounted operation (see FaultPolicy): the one model of a slow or
	// failing device.
	fault atomic.Pointer[faultInjector]

	// pool is the buffer pool placing this accountant's storage,
	// attached on first use without a budget unless NewBufferPool
	// attached one first. With a budget, Read/Write/ReadNode/WriteNode
	// become logical-only bookkeeping — the modeled latency and fault
	// injection move to the pool's physical transfers, so a cache hit
	// pays nothing.
	pool atomic.Pointer[BufferPool]

	// logger, when non-nil, is the write-ahead log the buffer pool
	// consults on the write path (see PageLogger).
	logger atomic.Pointer[pageLoggerRef]

	// clock is the MVCC epoch clock every Store created against this
	// accountant versions its pages with. The accountant only carries the
	// reference — attaching it here reaches every storage object without
	// threading a parameter through each constructor.
	clock atomic.Pointer[mvcc.Clock]
}

// SetClock installs the epoch clock that stores created against this
// accountant from now on version their pages with. Install it before
// creating the catalog so every heap file and B-Tree shares it.
func (a *Accountant) SetClock(c *mvcc.Clock) { a.clock.Store(c) }

// Clock returns the accountant's epoch clock, creating one on first use
// when none was installed: storage is always versioned. A nil accountant
// has nowhere to keep a clock, so each call returns a private one.
func (a *Accountant) Clock() *mvcc.Clock {
	if a == nil {
		return mvcc.New()
	}
	if c := a.clock.Load(); c != nil {
		return c
	}
	a.clock.CompareAndSwap(nil, mvcc.New())
	return a.clock.Load()
}

// PageLogger is the write-ahead-log contract the buffer pool enforces
// on its write path: every dirty frame is stamped with the log's
// current appended LSN when it is unpinned dirty (the page cannot
// contain effects of records not yet appended, because the engine
// appends before applying), and before a dirty page image reaches the
// backing store the pool calls Flush with that page-LSN — the classic
// WAL rule "log hits disk before the page does".
type PageLogger interface {
	// AppendedLSN returns the LSN of the last appended record.
	AppendedLSN() uint64
	// Flush forces the log durable through at least lsn.
	Flush(lsn uint64) error
}

// pageLoggerRef boxes the interface for atomic.Pointer.
type pageLoggerRef struct{ l PageLogger }

// SetPageLogger attaches (or, with nil, detaches) the write-ahead log
// observed by the buffer pool's write path. Safe to call while I/O is
// in flight.
func (a *Accountant) SetPageLogger(l PageLogger) {
	if l == nil {
		a.logger.Store(nil)
		return
	}
	a.logger.Store(&pageLoggerRef{l: l})
}

// PageLogger returns the attached write-ahead log, or nil.
func (a *Accountant) PageLogger() PageLogger {
	if a == nil {
		return nil
	}
	ref := a.logger.Load()
	if ref == nil {
		return nil
	}
	return ref.l
}

// Pool returns the attached buffer pool when it has a frame budget, or
// nil when pages have none (every page stays resident and only logical
// I/O is charged).
func (a *Accountant) Pool() *BufferPool {
	if p := a.frames(); p.budget > 0 {
		return p
	}
	return nil
}

// frames returns the pool that places the pages of storage built against
// a, attaching one without a budget on first use. A nil accountant has
// nowhere to keep a pool, so each call returns a private one.
func (a *Accountant) frames() *BufferPool {
	if a == nil {
		return newPool(nil, 0)
	}
	if p := a.pool.Load(); p != nil {
		return p
	}
	a.pool.CompareAndSwap(nil, newPool(a, 0))
	return a.pool.Load()
}

// Read charges n page reads. With a fault policy installed, a faulted
// read panics with a *FaultError (see FaultError for why this layer
// panics instead of returning an error). Charging is interleaved per
// page — charge, latency, fault — so after a mid-batch fault the counters
// reflect only the pages actually reached.
func (a *Accountant) Read(n int) { a.charge(n, false, false) }

// ReadNode charges n B-Tree node reads: an ordinary page read that is
// additionally attributed to index traffic in Stats.
func (a *Accountant) ReadNode(n int) { a.charge(n, false, true) }

// Write charges n page writes, subject to the installed fault policy
// like Read (charge and fault interleaved per page).
func (a *Accountant) Write(n int) { a.charge(n, true, false) }

// WriteNode charges n B-Tree node writes (see ReadNode).
func (a *Accountant) WriteNode(n int) { a.charge(n, true, true) }

// charge adds n logical page reads or writes. Under a frame budget (the
// one placement-dependent rule) that is bookkeeping only: latency and
// faults are paid by physical transfers on cache misses.
func (a *Accountant) charge(n int, write, node bool) {
	if a == nil {
		return
	}
	total, nodes, op := &a.reads, &a.nodeReads, "read"
	if write {
		total, nodes, op = &a.writes, &a.nodeWrites, "write"
	}
	if fi := a.fault.Load(); fi != nil && a.Pool() == nil {
		for ; n > 0; n-- {
			if node {
				nodes.Add(1)
			}
			total.Add(1)
			fi.onOp(op)
		}
		return
	}
	if node {
		nodes.Add(int64(n))
	}
	total.Add(int64(n))
}

// phys charges one backing-store transfer of kind op: a read on every
// cache miss, a write on every dirty write-back. Under a budget this is
// where the fault policy's latency and faults apply.
func (a *Accountant) phys(op string) {
	if op == "read" {
		a.physReads.Add(1)
	} else {
		a.physWrites.Add(1)
	}
	if fi := a.fault.Load(); fi != nil {
		fi.onOp(op)
	}
}

// Stats snapshots the counters.
func (a *Accountant) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	return Stats{
		PageReads:  a.reads.Load(),
		PageWrites: a.writes.Load(),
		NodeReads:  a.nodeReads.Load(),
		NodeWrites: a.nodeWrites.Load(),

		PhysReads:   a.physReads.Load(),
		PhysWrites:  a.physWrites.Load(),
		CacheHits:   a.cacheHits.Load(),
		CacheMisses: a.cacheMisses.Load(),
		Evictions:   a.evictions.Load(),
	}
}

// Reset zeroes the counters; the fault policy, pool and log stay attached.
func (a *Accountant) Reset() {
	if a == nil {
		return
	}
	a.reads.Store(0)
	a.writes.Store(0)
	a.nodeReads.Store(0)
	a.nodeWrites.Store(0)
	a.physReads.Store(0)
	a.physWrites.Store(0)
	a.cacheHits.Store(0)
	a.cacheMisses.Store(0)
	a.evictions.Store(0)
}
