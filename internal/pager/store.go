package pager

import (
	"fmt"
	"math"
	"sync"

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

// Store keeps one storage object's pages (a heap file's, a B-Tree's) and
// decides the two things its callers do not know: where a page lives —
// resident in the store, or in frames of the accountant's buffer pool,
// round-tripping through codec on eviction — and which version a reader
// sees. Every page carries the epoch stamp of the mutation that produced
// it; Writable clones a page copy-on-write before its first mutation in a
// new epoch and keeps the replaced version on a per-page overlay chain;
// a Reader resolves each page to the version visible at its snapshot
// without any lock against the writer. Chains are pruned as the clock's
// minimum pinned epoch advances, and Pins.Drop/Release reclaim only once
// no pinned epoch can still reach what they free. Page ids are small dense
// integers chosen by the caller and never reused.
//
// One goroutine at a time may call New, Writable, Release and use Pins
// (the engine's exclusive writer); Readers may run concurrently with it and
// with each other.
type Store[P Versioned[P]] struct {
	clock      *mvcc.Clock
	pool       *BufferPool // nil: every page stays resident in pages
	space      int32
	unregister func()

	mu      sync.RWMutex
	pages   []P                       // resident current versions by id; unused when pooled
	overlay map[int64][]superseded[P] // replaced versions, newest last
}

// NewStore builds an empty store on acct's epoch clock, placed in acct's
// buffer pool when it has one.
func NewStore[P Versioned[P]](acct *Accountant, codec PageCodec) *Store[P] {
	s := &Store[P]{clock: acct.Clock(), overlay: make(map[int64][]superseded[P])}
	if pool := acct.Pool(); pool != nil {
		s.pool = pool
		s.space = pool.NewSpace(codec)
	}
	s.unregister = s.clock.AddPruner(s.prune)
	return s
}

// Stamp returns the epoch the in-progress mutation will publish as: the
// stamp of every page created now.
func (s *Store[P]) Stamp() uint64 { return s.clock.Stamp() }

// New installs a page the caller just created under a fresh id and
// leaves it pinned; the caller unpins it dirty.
func (s *Store[P]) New(id int64, p P) {
	if s.pool != nil {
		s.pool.NewPage(s.space, id, p)
		return
	}
	s.mu.Lock()
	for int64(len(s.pages)) <= id {
		var none P
		s.pages = append(s.pages, none)
	}
	s.pages[id] = p
	s.mu.Unlock()
}

// Writable returns id's current version, pinned and ready for in-place
// mutation. A version stamped by an earlier epoch may still be resolved
// by snapshot readers, so it is cloned first and moves to the overlay.
func (s *Store[P]) Writable(id int64) P {
	var p P
	if s.pool != nil {
		p = s.pool.Get(s.space, id).(P)
	} else {
		s.mu.RLock()
		p = s.pages[id]
		s.mu.RUnlock()
	}
	st := s.clock.Stamp()
	if p.Stamp() == st {
		return p
	}
	cl := p.CloneAt(st)
	// The replaced version is on the overlay before the clone becomes
	// current, so a reader that finds the clone too new finds its
	// predecessor there.
	s.mu.Lock()
	s.overlay[id] = append(s.overlay[id], superseded[P]{until: st, page: p})
	if s.pool == nil {
		s.pages[id] = cl
	}
	s.mu.Unlock()
	if s.pool != nil {
		s.pool.SetValue(s.space, id, cl)
	}
	return cl
}

// Unpin releases one pin taken by New or Writable; dirty records that
// the page was mutated.
func (s *Store[P]) Unpin(id int64, dirty bool) {
	if s.pool != nil {
		s.pool.Unpin(s.space, id, dirty)
	}
}

// drop frees a page the in-progress mutation unlinked. A reader pinned
// at an earlier epoch may still resolve the page, and no later epoch
// references its id, so it is reclaimed once the mutation has published
// and every earlier pin is gone. The caller holds no pin on it.
func (s *Store[P]) drop(id int64) {
	s.clock.Retire(func() {
		if s.pool != nil {
			s.pool.Drop(s.space, id)
			return
		}
		s.mu.Lock()
		if id < int64(len(s.pages)) {
			var none P
			s.pages[id] = none
		}
		s.mu.Unlock()
	})
}

// Release frees every page and takes the store off the clock, deferred
// like the reclamation of a single dropped page. The store must not be
// written afterwards.
func (s *Store[P]) Release() {
	s.clock.Retire(func() {
		s.unregister()
		if s.pool != nil {
			s.pool.DropSpace(s.space)
		}
		s.mu.Lock()
		s.pages = nil
		s.overlay = make(map[int64][]superseded[P])
		s.mu.Unlock()
	})
}

// Prefetch hints that the given pages are about to be read. Resident
// pages need no warming.
func (s *Store[P]) Prefetch(ids []int64) {
	if s.pool != nil {
		s.pool.Prefetch(s.space, ids)
	}
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
// fault panic. Resident pages need no pins and the set stays empty.
type Pins[P Versioned[P]] struct {
	s    *Store[P]
	held []heldPin
}

// heldPin is one pin; id -1 marks one already released.
type heldPin struct {
	id    int64
	dirty bool
}

// Pins starts an empty pin set; the caller defers Release.
func (s *Store[P]) Pins() Pins[P] { return Pins[P]{s: s} }

func (w *Pins[P]) hold(id int64, dirty bool) {
	if w.s.pool != nil {
		w.held = append(w.held, heldPin{id: id, dirty: dirty})
	}
}

// Writable is Store.Writable with the pin held until Put, Drop or Release.
func (w *Pins[P]) Writable(id int64) P {
	p := w.s.Writable(id)
	w.hold(id, false)
	return p
}

// New is Store.New with the pin held, dirty, until Put, Drop or Release.
func (w *Pins[P]) New(id int64, p P) {
	w.s.New(id, p)
	w.hold(id, true)
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
			w.s.pool.Unpin(w.s.space, id, w.held[i].dirty)
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
			w.s.pool.Unpin(w.s.space, id, false)
			w.held[i].id = -1
		}
	}
	w.s.drop(id)
}

// Release unpins everything the set still holds.
func (w *Pins[P]) Release() {
	for _, h := range w.held {
		if h.id >= 0 {
			w.s.pool.Unpin(w.s.space, h.id, h.dirty)
		}
	}
	w.held = w.held[:0]
}

// Reader reads a store's pages as of one snapshot, holding at most one
// frame pin: Page moves the pin to the page it returns, Release drops
// it. The caller holds a clock pin on the snapshot (or is the writer,
// reading at Latest) for the Reader's lifetime. The zero Reader is not
// usable; a Reader is not safe for concurrent use.
type Reader[P Versioned[P]] struct {
	s      *Store[P]
	snap   uint64
	id     int64
	pinned bool
}

// Reader returns a reader frozen at epoch snap.
func (s *Store[P]) Reader(snap uint64) Reader[P] { return Reader[P]{s: s, snap: snap} }

// Page returns id's version visible at the reader's snapshot. The pin on
// the previously returned page is released only after the new page is
// held (hand over hand). A replaced version is an immutable plain object
// and holds no frame. Panics with *MissingVersionError when the page has
// no version at the snapshot.
func (r *Reader[P]) Page(id int64) P {
	s := r.s
	var p, none P
	if s.pool != nil {
		p = s.pool.Get(s.space, id).(P)
	} else {
		s.mu.RLock()
		if id < int64(len(s.pages)) {
			p = s.pages[id]
		}
		s.mu.RUnlock()
	}
	current := p != none && p.Stamp() <= r.snap
	if !current {
		if s.pool != nil {
			s.pool.Unpin(s.space, id, false)
		}
		p = s.replaced(id, r.snap)
	}
	r.Release()
	r.id, r.pinned = id, current && s.pool != nil
	return p
}

// Release drops the reader's pin, if it holds one. Safe to repeat.
func (r *Reader[P]) Release() {
	if r.pinned {
		r.s.pool.Unpin(r.s.space, r.id, false)
		r.pinned = false
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
