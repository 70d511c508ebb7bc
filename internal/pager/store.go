package pager

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mvcc"
)

// Latest is the snapshot that resolves every page to its current
// version: what the (single) writer reads at.
const Latest uint64 = math.MaxUint64

// Versioned is what a page type supplies to live in a Store. P is a
// pointer type whose zero value (nil) means "no page".
type Versioned[P any] interface {
	comparable
	// Stamp returns the epoch of the mutation that produced this version.
	// It is set before the version becomes reachable and never rewritten.
	Stamp() uint64
	// CloneAt returns a deep copy of the version stamped st.
	CloneAt(st uint64) P
}

// MissingVersionError reports a read of a page that has no version
// visible at the reader's snapshot. Bounds frozen into a view (a heap's
// page count, a tree's root) only ever lead to pages that existed at its
// epoch, and reclamation waits for pins to drain, so this is a broken
// storage invariant, never an empty page. Like *FaultError it surfaces by
// panic and is recovered into a query error at the executor boundary.
type MissingVersionError struct {
	Page int64
	Snap uint64
}

func (e *MissingVersionError) Error() string {
	return fmt.Sprintf("pager: page %d has no version visible at epoch %d", e.Page, e.Snap)
}

// superseded is one replaced page version: page was current for epochs
// in [page.Stamp(), until).
type superseded[P any] struct {
	until uint64
	page  P
}

// slot is one page id's entry in its store: its frame and the current
// version, a P boxed for reads that take no lock — a nil P while the page
// is out of memory or dropped, nothing at all for an id never created.
// Slot chunks never move, so a slot's address is stable.
type slot struct {
	frame
	page atomic.Value
}

const slotChunk = 64

// Store keeps one storage object's pages (a heap file's, a B-Tree's) and
// decides where a page lives — in the store's own slot, or evicted to its
// buffer pool's backing store — and which version a reader sees. Its
// slots are the page table at every budget (see hit, pin and evict).
// Every page carries the epoch stamp of the mutation that produced it;
// Writable clones a page copy-on-write before its first mutation in a
// new epoch and keeps the replaced version on a per-page overlay chain; a
// Reader resolves each page to the version visible at its snapshot
// without any lock against the writer. Chains are pruned as the clock's
// minimum pinned epoch advances, and Pins.Drop/Release reclaim only once
// no pinned epoch can still reach what they free. Page ids are small
// dense integers chosen by the caller and never reused.
//
// One goroutine at a time may call New, Writable, Release and use Pins
// (the engine's exclusive writer); Readers may run concurrently with it and
// with each other. Lock order: the pool's mutex before the store's.
type Store[P Versioned[P]] struct {
	clock      *mvcc.Clock
	pool       *BufferPool
	space      int32
	unregister func()
	dir        atomic.Pointer[[]*[slotChunk]slot] // slot chunks by id / slotChunk

	mu      sync.RWMutex              // guards growth, eviction, overlay
	pinBuf  []heldPin                 // the buffer each Pins set reuses
	overlay map[int64][]superseded[P] // replaced versions, newest last
}

// NewStore builds an empty store on acct's epoch clock, placed in acct's
// buffer pool.
func NewStore[P Versioned[P]](acct *Accountant, codec PageCodec) *Store[P] {
	s := &Store[P]{clock: acct.Clock(), pool: acct.frames(), overlay: make(map[int64][]superseded[P])}
	s.dir.Store(new([]*[slotChunk]slot))
	s.pool.mu.Lock()
	s.space, s.pool.nextID = s.pool.nextID, s.pool.nextID+1
	s.pool.spaces[s.space] = space{codec: codec, evict: s.evict}
	s.pool.mu.Unlock()
	s.unregister = s.clock.AddPruner(s.prune)
	return s
}

// Stamp returns the epoch the in-progress mutation will publish as: the
// stamp of every page created now.
func (s *Store[P]) Stamp() uint64 { return s.clock.Stamp() }

// New installs a page the caller just created under a fresh id and
// leaves it pinned and dirty (it exists nowhere else).
func (s *Store[P]) New(id int64, p P) {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	i := s.pool.room()
	s.mu.Lock()
	defer s.mu.Unlock()
	for int64(len(*s.dir.Load()))*slotChunk <= id {
		d := append(*s.dir.Load(), new([slotChunk]slot))
		s.dir.Store(&d)
	}
	sl := s.at(id)
	sl.pins.Store(1)
	sl.dirty.Store(true)
	sl.page.Store(p)
	s.pool.enter(i, pageKey{s.space, id}, &sl.frame)
}

// at returns id's slot, or nil past the allocated chunks, without a lock.
func (s *Store[P]) at(id int64) *slot {
	if d := *s.dir.Load(); id >= 0 && id < int64(len(d))*slotChunk {
		return &d[id/slotChunk][id%slotChunk]
	}
	return nil
}

// hit pins id's slot with one atomic add and returns its current version
// when the page is in memory (else a nil page, nothing pinned), taking no
// lock: the pin is published before the page is read, and eviction hides
// the page before it checks the pins, so one of the two sees the other.
func (s *Store[P]) hit(id int64) (*slot, P) {
	sl := s.at(id)
	if sl == nil {
		return nil, *new(P)
	}
	sl.pins.Add(1)
	if p, _ := sl.page.Load().(P); p != *new(P) {
		s.pool.hit()
		return sl, p
	}
	sl.pins.Add(-1)
	return sl, *new(P)
}

// pin is hit, loading the page on a miss; a nil slot means the store
// has no page id. Under the pool's mutex a miss first waits out another
// reader's load of the page, if one is in flight, and re-checks with a
// hit: two readers of one page read it once. Otherwise it counts the
// miss, takes a ring position and loads the page, whose read and decode
// run without the mutex (see BufferPool.load).
func (s *Store[P]) pin(id int64) (*slot, P) {
	sl, p := s.hit(id)
	if sl == nil || p != *new(P) {
		return sl, p
	}
	pool, k := s.pool, pageKey{s.space, id}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for pool.loading[k] {
		pool.loaded.Wait()
	}
	if _, p = s.hit(id); p != *new(P) { // another reader's miss loaded it meanwhile
		return sl, p
	}
	if sl.page.Load() == nil { // never created
		return nil, p
	}
	pool.acct.cacheMisses.Add(1)
	return sl, pool.load(pool.room(), k, sl).(P)
}

// evict is the store's side of an eviction (see space); the pool holds
// its mutex. The page is hidden from hits before the pins are checked,
// so a racing hit either pinned the page first (it stays) or misses and
// waits for the pool. A dirty page is then written back while nothing
// can reach it, and put back if that fails: the victim stays resident
// and dirty. The store's lock keeps copy-on-write out meanwhile.
func (s *Store[P]) evict(id int64) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.at(id)
	p := sl.page.Load()
	sl.page.Store(*new(P))
	if sl.pins.Load() > 0 {
		sl.page.Store(p)
		return nil, false
	}
	if sl.dirty.Load() {
		defer func() {
			if r := recover(); r != nil {
				sl.page.Store(p)
				panic(r)
			}
		}()
		s.pool.writeBack(pageKey{s.space, id}, p, sl.lsn.Load())
		sl.dirty.Store(false)
	}
	return p, true
}

// Writable returns id's current version, pinned and ready for in-place
// mutation. A version stamped by an earlier epoch may still be resolved
// by snapshot readers, so it is cloned first and moves to the overlay.
func (s *Store[P]) Writable(id int64) P {
	sl, p := s.pin(id)
	if sl == nil {
		panic(&MissingVersionError{Page: id, Snap: Latest})
	}
	st := s.clock.Stamp()
	if p.Stamp() == st {
		return p
	}
	cl := p.CloneAt(st)
	// The replaced version is on the overlay before the clone becomes
	// current, so a reader that finds the clone too new finds it there.
	s.mu.Lock()
	s.overlay[id] = append(s.overlay[id], superseded[P]{until: st, page: p})
	sl.page.Store(cl)
	s.mu.Unlock()
	return cl
}

// Unpin releases one pin taken by New or Writable; dirty records that
// the page was mutated.
func (s *Store[P]) Unpin(id int64, dirty bool) { s.pool.unpin(&s.at(id).frame, dirty) }

// drop frees a page the in-progress mutation unlinked. A reader pinned
// at an earlier epoch may still resolve the page, and no later epoch
// references its id, so it is reclaimed once the mutation has published
// and every earlier pin is gone. The caller holds no pin on it.
func (s *Store[P]) drop(id int64) {
	s.clock.Retire(func() {
		s.pool.mu.Lock()
		defer s.pool.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		if sl := s.at(id); sl != nil {
			s.pool.leave(&sl.frame, sl.page.Load())
			s.pool.freeSpan(pageKey{s.space, id})
			sl.page.Store(*new(P))
		}
	})
}

// Release frees every page and takes the store off the clock, deferred
// like the reclamation of a single dropped page. The store must not be
// written afterwards.
func (s *Store[P]) Release() {
	s.clock.Retire(func() {
		s.unregister()
		s.pool.dropSpace(s.space)
		s.mu.Lock()
		s.dir.Store(new([]*[slotChunk]slot))
		s.overlay = make(map[int64][]superseded[P])
		s.mu.Unlock()
	})
}

// prune discards the versions no pinned epoch can still resolve (until
// <= min). min only advances, but calls may arrive out of order; removal
// by threshold is safe either way.
func (s *Store[P]) prune(min uint64) {
	s.mu.Lock()
	for id, vs := range s.overlay {
		i := 0
		for i < len(vs) && vs[i].until <= min {
			i++
		}
		if i == len(vs) {
			delete(s.overlay, id)
		} else if i > 0 {
			s.overlay[id] = vs[i:]
		}
	}
	s.mu.Unlock()
}

// Pins is the set of pages one multi-page mutation (a B-Tree insert or
// delete) holds pinned, so that they are released exactly once when the
// operation finishes — including when it unwinds through a write-back
// fault panic.
type Pins[P Versioned[P]] struct {
	s    *Store[P]
	held []heldPin
}

// heldPin is one pin; id -1 marks one already released.
type heldPin struct {
	id    int64
	dirty bool
}

// Pins starts an empty pin set on the store's reused buffer, so a store
// has one set open at a time; the caller defers Release.
func (s *Store[P]) Pins() Pins[P] { return Pins[P]{s: s, held: s.pinBuf[:0]} }

// Writable is Store.Writable with the pin held until Put, Drop or Release.
func (w *Pins[P]) Writable(id int64) P {
	p := w.s.Writable(id)
	w.held = append(w.held, heldPin{id: id})
	return p
}

// New is Store.New with the pin held, dirty, until Put, Drop or Release.
func (w *Pins[P]) New(id int64, p P) {
	w.s.New(id, p)
	w.held = append(w.held, heldPin{id: id, dirty: true})
}

// MarkDirty records that id, pinned in the set, was mutated.
func (w *Pins[P]) MarkDirty(id int64) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].id == id {
			w.held[i].dirty = true
			return
		}
	}
}

// Put releases id's most recent pin early (failed probes, untouched
// siblings) so pins don't accumulate past the frame budget.
func (w *Pins[P]) Put(id int64) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].id == id {
			w.s.Unpin(id, w.held[i].dirty)
			w.held[i].id = -1
			return
		}
	}
}

// Drop releases every pin the set holds on id and frees the page: the
// mutation unlinked it (a merge victim, a collapsed root).
func (w *Pins[P]) Drop(id int64) {
	for i := range w.held {
		if w.held[i].id == id {
			w.s.Unpin(id, false)
			w.held[i].id = -1
		}
	}
	w.s.drop(id)
}

// Release unpins everything the set still holds.
func (w *Pins[P]) Release() {
	for _, h := range w.held {
		if h.id >= 0 {
			w.s.Unpin(h.id, h.dirty)
		}
	}
	w.held = w.held[:0]
	w.s.pinBuf = w.held
}

// Reader reads a store's pages as of one snapshot, holding at most one
// pin: Page moves the pin to the page it returns, Release drops it. The
// caller holds a clock pin on the snapshot (or is the writer, reading at
// Latest) for the Reader's lifetime. The zero Reader is not usable; a
// Reader is not safe for concurrent use.
type Reader[P Versioned[P]] struct {
	s      *Store[P]
	snap   uint64
	pinned *frame
}

// Reader returns a reader frozen at epoch snap.
func (s *Store[P]) Reader(snap uint64) Reader[P] { return Reader[P]{s: s, snap: snap} }

// Page returns id's version visible at the reader's snapshot. The pin on
// the previously returned page is released only after the new page is
// held (hand over hand). A replaced version is an immutable plain object
// and holds no pin. Panics with *MissingVersionError when the page has
// no version at the snapshot.
func (r *Reader[P]) Page(id int64) P {
	sl, p := r.s.pin(id)
	if sl == nil || p.Stamp() > r.snap {
		if sl != nil {
			r.s.pool.unpin(&sl.frame, false)
		}
		p, sl = r.s.replaced(id, r.snap), nil
	}
	r.Release()
	if sl != nil {
		r.pinned = &sl.frame
	}
	return p
}

// Release drops the reader's pin, if it holds one. Safe to repeat.
func (r *Reader[P]) Release() {
	if r.pinned != nil {
		r.s.pool.unpin(r.pinned, false)
		r.pinned = nil
	}
}

// replaced finds the newest replaced version of id visible at snap.
func (s *Store[P]) replaced(id int64, snap uint64) P {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.overlay[id]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].page.Stamp() <= snap {
			return vs[i].page
		}
	}
	panic(&MissingVersionError{Page: id, Snap: snap})
}
