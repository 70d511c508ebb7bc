// Package mvcc provides the epoch clock behind the engine's snapshot
// reads. A Clock publishes a sequence of immutable epochs: the single
// writer (serialized by the engine's exclusive lock) builds the next
// epoch copy-on-write and Publishes it; readers Pin the current epoch,
// run entirely against its value, and Unpin. The clock tracks the
// minimum pinned epoch so version chains can be pruned and retired
// resources (dropped pages, replaced trees) can be reclaimed exactly
// when no reader can still reach them.
package mvcc

import (
	"sync"
	"sync/atomic"
)

// Clock is the epoch clock. The zero value is not usable; call New.
//
// Epoch numbering: epoch 0 is "before the first publish"; each Publish
// increments the current epoch. A writer building the next epoch stamps
// its copies with Stamp() == Cur()+1, the epoch they will become
// current at.
type Clock struct {
	mu sync.Mutex

	// cur is the current published epoch. It is written only under mu
	// (by Publish) but read lock-free by Cur/Stamp.
	cur atomic.Uint64

	// val is the current published epoch value (the engine's dbEpoch).
	val any

	// pins counts readers per pinned epoch; npins is their total.
	pins  map[uint64]int
	npins int
	idle  *sync.Cond // signalled when npins drops to zero

	// lastMin is the last minimum-active epoch the pruners were run
	// with; it only advances.
	lastMin uint64

	// pruners are version-chain trimmers, invoked (outside mu) whenever
	// the minimum active epoch advances. Entries below len are never
	// edited in place (cancel copies), so a snapshot taken under mu stays
	// valid outside it.
	pruners []*pruner

	// retired holds deferred reclamations: fn runs once, when the
	// minimum active epoch reaches epoch. Appended in nondecreasing
	// epoch order (epochs come from the monotone cur).
	retired []retiredFn
}

type pruner struct{ fn func(min uint64) }

type retiredFn struct {
	epoch uint64
	fn    func()
}

// New builds a clock at epoch 0 with a nil value. The engine publishes
// the initial epoch before the database is visible to any reader.
func New() *Clock {
	c := &Clock{pins: make(map[uint64]int)}
	c.idle = sync.NewCond(&c.mu)
	return c
}

// Cur returns the current published epoch. Lock-free.
func (c *Clock) Cur() uint64 { return c.cur.Load() }

// Stamp returns the epoch the in-progress mutation will publish as —
// the stamp a writer puts on every page or node version it creates.
// Lock-free; stable for the duration of a mutation because only the
// (single, exclusively locked) writer publishes.
func (c *Clock) Stamp() uint64 { return c.Cur() + 1 }

// Pin registers a reader on the current epoch and returns its value and
// number. The caller must Unpin with the same number exactly once.
func (c *Clock) Pin() (any, uint64) {
	c.mu.Lock()
	s := c.cur.Load()
	c.pins[s]++
	c.npins++
	v := c.val
	c.mu.Unlock()
	return v, s
}

// Unpin releases a reader's pin on epoch s.
func (c *Clock) Unpin(s uint64) {
	c.mu.Lock()
	n := c.pins[s] - 1
	if n <= 0 {
		delete(c.pins, s)
	} else {
		c.pins[s] = n
	}
	c.npins--
	if c.npins == 0 {
		c.idle.Broadcast()
	}
	fns, pruners, min := c.advanceLocked()
	c.mu.Unlock()
	runReclaims(fns, pruners, min)
}

// Publish installs v as the next epoch's value and makes it current.
// Only the engine's single writer calls Publish.
func (c *Clock) Publish(v any) {
	c.mu.Lock()
	c.cur.Store(c.cur.Load() + 1)
	c.val = v
	fns, pruners, min := c.advanceLocked()
	c.mu.Unlock()
	runReclaims(fns, pruners, min)
}

// Retire defers fn until no reader can still observe the state being
// replaced by the in-progress mutation: fn runs once the minimum active
// epoch reaches Stamp() (i.e. the mutation has published and every pin
// on an earlier epoch is gone).
func (c *Clock) Retire(fn func()) {
	c.mu.Lock()
	c.retired = append(c.retired, retiredFn{epoch: c.cur.Load() + 1, fn: fn})
	c.mu.Unlock()
}

// AddPruner registers a version-chain trimmer, called with the new
// minimum active epoch (outside the clock's lock) whenever it advances.
// Pruners must tolerate concurrent invocations in any order of min. The
// returned cancel removes the registration; an advance already under way
// may still call fn once after cancel returns.
func (c *Clock) AddPruner(fn func(min uint64)) (cancel func()) {
	p := &pruner{fn: fn}
	c.mu.Lock()
	c.pruners = append(c.pruners, p)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, q := range c.pruners {
			if q == p {
				c.pruners = append(c.pruners[:i:i], c.pruners[i+1:]...)
				return
			}
		}
	}
}

// Pruners returns the number of registered pruners.
func (c *Clock) Pruners() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pruners)
}

// WaitIdle blocks until no epoch is pinned. Used by teardown to drain
// in-flight readers after cutting off new pins.
func (c *Clock) WaitIdle() {
	c.mu.Lock()
	for c.npins > 0 {
		c.idle.Wait()
	}
	c.mu.Unlock()
}

// advanceLocked recomputes the minimum active epoch; if it advanced it
// pops the now-due retirements and snapshots the pruners, for the
// caller to run after releasing mu. The caller holds mu.
func (c *Clock) advanceLocked() ([]retiredFn, []*pruner, uint64) {
	min := c.cur.Load()
	for s := range c.pins {
		if s < min {
			min = s
		}
	}
	if min <= c.lastMin {
		return nil, nil, 0
	}
	c.lastMin = min
	n := 0
	for n < len(c.retired) && c.retired[n].epoch <= min {
		n++
	}
	var due []retiredFn
	if n > 0 {
		due = c.retired[:n:n]
		c.retired = c.retired[n:]
	}
	pruners := c.pruners
	return due, pruners, min
}

// runReclaims runs due retirements and pruners outside the clock lock.
func runReclaims(fns []retiredFn, pruners []*pruner, min uint64) {
	for _, r := range fns {
		r.fn()
	}
	for _, p := range pruners {
		p.fn(min)
	}
}
