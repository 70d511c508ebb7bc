package pager

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultPolicy describes deterministic or probabilistic I/O faults to
// inject at the page-accounting layer, plus an optional per-operation
// latency. It is the disk-failure model a disk-resident deployment
// would face: the heap, B-Tree, and index paths all charge their page
// accesses through an Accountant, so a policy installed there is
// observed by every access path without touching their code.
//
// All mechanisms compose: an operation fails when any of them fires.
// The zero policy injects nothing.
type FaultPolicy struct {
	// FailFirstReads fails the first N page reads issued after the
	// policy is installed — a transient outage that clears once the
	// failing operations have been consumed (bounded retry succeeds).
	FailFirstReads int
	// FailFirstWrites is the write-side analogue.
	FailFirstWrites int

	// EveryKthRead (> 0) deterministically fails every K-th page read.
	EveryKthRead int
	// EveryKthWrite is the write-side analogue.
	EveryKthWrite int

	// ReadProb / WriteProb fail operations with the given probability,
	// drawn from a generator seeded with Seed so runs are reproducible.
	ReadProb  float64
	WriteProb float64
	Seed      int64

	// Latency is slept on every accounted page operation while the
	// policy is installed — the modeled device latency: per logical page
	// without a buffer pool, per physical transfer (a miss or a
	// write-back) with one, so a cache hit pays nothing.
	Latency time.Duration
}

// FaultError is the typed error behind an injected fault. The storage
// layers (heap, btree, index) expose ok-bool rather than error
// signatures, so the Accountant surfaces a fault by panicking with a
// *FaultError; the executor recovers it at the operator boundary and
// returns it as an ordinary error — errors.As sees it through the
// wrapping chain.
type FaultError struct {
	Op  string // "read" or "write"
	Seq int64  // 1-based operation number under this policy
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("pager: injected %s fault (operation #%d)", e.Op, e.Seq)
}

// faultInjector is the installed runtime state of a FaultPolicy: the
// immutable policy plus per-operation counters and the seeded
// generator. Counters are atomic and the generator mutex-guarded, so
// injection is safe under concurrent readers.
type faultInjector struct {
	policy FaultPolicy
	reads  atomic.Int64
	writes atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

func newFaultInjector(p FaultPolicy) *faultInjector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return &faultInjector{policy: p, rng: rand.New(rand.NewSource(seed))}
}

func (fi *faultInjector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	fi.mu.Lock()
	v := fi.rng.Float64()
	fi.mu.Unlock()
	return v < p
}

// onOp records one page operation and panics with a *FaultError when
// the policy says this one fails.
func (fi *faultInjector) onOp(op string) {
	if fi.policy.Latency > 0 {
		time.Sleep(fi.policy.Latency)
	}
	var seq int64
	var failFirst, everyKth int
	var prob float64
	if op == "read" {
		seq = fi.reads.Add(1)
		failFirst, everyKth, prob = fi.policy.FailFirstReads, fi.policy.EveryKthRead, fi.policy.ReadProb
	} else {
		seq = fi.writes.Add(1)
		failFirst, everyKth, prob = fi.policy.FailFirstWrites, fi.policy.EveryKthWrite, fi.policy.WriteProb
	}
	if seq <= int64(failFirst) || (everyKth > 0 && seq%int64(everyKth) == 0) || fi.roll(prob) {
		panic(&FaultError{Op: op, Seq: seq})
	}
}

// SetFaultPolicy installs (or, with nil, clears) a fault-injection
// policy. Safe for concurrent use with ongoing I/O; the injector's
// operation counters start at zero each time a policy is installed.
func (a *Accountant) SetFaultPolicy(p *FaultPolicy) {
	if p == nil {
		a.fault.Store(nil)
		return
	}
	a.fault.Store(newFaultInjector(*p))
}
