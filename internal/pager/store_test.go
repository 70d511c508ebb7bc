package pager

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// verPage is the page type the store tests keep: one value plus the
// stamp the store versions it by.
type verPage struct {
	Val int
	St  uint64
}

func (p *verPage) Stamp() uint64 { return p.St }

func (p *verPage) CloneAt(st uint64) *verPage { return &verPage{Val: p.Val, St: st} }

type verCodec struct{}

func (verCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	p := v.(*verPage)
	return binary.AppendVarint(binary.AppendUvarint(dst, p.St), int64(p.Val)), nil
}

func (verCodec) DecodePage(data []byte, _ int32, _ int64) (any, error) {
	st, n := binary.Uvarint(data)
	val, m := binary.Varint(data[max(n, 0):])
	if n <= 0 || m <= 0 || n+m != len(data) {
		return nil, errors.New("malformed verPage image")
	}
	return &verPage{Val: int(val), St: st}, nil
}

// eachPlacement runs fn against a store in a pool with no budget, whose
// pages all stay resident (cell "resident"), and against one in a pool
// of the minimum 16 frames (cell "pooled"): every versioning guarantee
// must hold whatever the budget.
func eachPlacement(t *testing.T, fn func(t *testing.T, acct *Accountant, s *Store[*verPage])) {
	t.Run("resident", func(t *testing.T) {
		acct := &Accountant{}
		fn(t, acct, NewStore[*verPage](acct, verCodec{}))
	})
	t.Run("pooled", func(t *testing.T) {
		acct := &Accountant{}
		pool := NewBufferPool(acct, MinPoolFrames)
		t.Cleanup(func() { pool.Close() })
		fn(t, acct, NewStore[*verPage](acct, verCodec{}))
	})
}

// put creates page id holding val in the in-progress epoch.
func put(s *Store[*verPage], id int64, val int) {
	s.New(id, &verPage{Val: val, St: s.Stamp()})
	s.Unpin(id, true)
}

// set overwrites page id's value in the in-progress epoch and returns
// the version it wrote into.
func set(s *Store[*verPage], id int64, val int) *verPage {
	p := s.Writable(id)
	p.Val = val
	s.Unpin(id, true)
	return p
}

// valAt reads page id's value as of snap.
func valAt(s *Store[*verPage], id int64, snap uint64) int {
	r := s.Reader(snap)
	defer r.Release()
	return r.Page(id).Val
}

func overlayLen(s *Store[*verPage]) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, vs := range s.overlay {
		n += len(vs)
	}
	return n
}

// mustPanicMissing asserts fn panics with *MissingVersionError.
func mustPanicMissing(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if _, ok := recover().(*MissingVersionError); !ok {
			t.Fatalf("%s: want *MissingVersionError panic", what)
		}
	}()
	fn()
}

func TestStoreClonesOncePerEpoch(t *testing.T) {
	eachPlacement(t, func(t *testing.T, acct *Accountant, s *Store[*verPage]) {
		put(s, 0, 10)
		if overlayLen(s) != 0 {
			t.Fatal("a page touched only in its birth epoch was cloned")
		}
		first := set(s, 0, 11)
		if first.St != 1 || overlayLen(s) != 0 {
			t.Fatalf("mutation within the birth epoch cloned: stamp %d, overlay %d", first.St, overlayLen(s))
		}
		_, pin := acct.Clock().Pin() // a pin on epoch 0 keeps replaced versions on the overlay
		defer acct.Clock().Unpin(pin)
		acct.Clock().Publish(nil) // epoch 1 is current; mutations now stamp 2

		second := set(s, 0, 12)
		if second == first || second.St != 2 || overlayLen(s) != 1 {
			t.Fatalf("first touch of epoch 2 did not clone: same=%v stamp=%d overlay=%d",
				second == first, second.St, overlayLen(s))
		}
		if third := set(s, 0, 13); third != second || overlayLen(s) != 1 {
			t.Fatalf("second touch of epoch 2 cloned again: same=%v overlay=%d", third == second, overlayLen(s))
		}
		if first.Val != 11 {
			t.Fatalf("replaced version was mutated: %d", first.Val)
		}
	})
}

func TestStoreReaderKeepsItsEpoch(t *testing.T) {
	eachPlacement(t, func(t *testing.T, acct *Accountant, s *Store[*verPage]) {
		clock := acct.Clock()
		put(s, 0, 100)
		put(s, 1, 200)
		clock.Publish(nil) // epoch 1
		_, pin := clock.Pin()

		set(s, 0, 101)
		if got := valAt(s, 0, pin); got != 100 {
			t.Fatalf("reader at epoch %d saw the unpublished write: %d", pin, got)
		}
		clock.Publish(nil) // epoch 2
		set(s, 0, 102)
		set(s, 1, 202)
		clock.Publish(nil) // epoch 3
		if a, b := valAt(s, 0, pin), valAt(s, 1, pin); a != 100 || b != 200 {
			t.Fatalf("reader at epoch %d saw %d/%d, want 100/200", pin, a, b)
		}
		if a, b := valAt(s, 0, 2), valAt(s, 1, 2); a != 101 || b != 200 {
			t.Fatalf("epoch 2 resolves to %d/%d, want 101/200", a, b)
		}
		if a, b := valAt(s, 0, Latest), valAt(s, 1, Latest); a != 102 || b != 202 {
			t.Fatalf("latest resolves to %d/%d, want 102/202", a, b)
		}

		// The overlay lives exactly as long as a pin can reach it.
		if overlayLen(s) != 3 {
			t.Fatalf("overlay holds %d versions while epoch %d is pinned, want 3", overlayLen(s), pin)
		}
		clock.Unpin(pin)
		if overlayLen(s) != 0 {
			t.Fatalf("overlay holds %d versions with nothing pinned", overlayLen(s))
		}
	})
}

func TestStoreMissingVersionPanics(t *testing.T) {
	eachPlacement(t, func(t *testing.T, acct *Accountant, s *Store[*verPage]) {
		acct.Clock().Publish(nil) // epoch 1
		put(s, 0, 1)              // born in epoch 2
		mustPanicMissing(t, "page born after the snapshot", func() { valAt(s, 0, 1) })
		mustPanicMissing(t, "unknown page", func() { valAt(s, 7, Latest) })
		mustPanicMissing(t, "write of an unknown page", func() { s.Writable(7) })
	})
}

func TestStoreDropAndReleaseWaitForPins(t *testing.T) {
	eachPlacement(t, func(t *testing.T, acct *Accountant, s *Store[*verPage]) {
		clock := acct.Clock()
		base := clock.Pruners() - 1 // without s
		put(s, 0, 1)
		put(s, 1, 2)
		clock.Publish(nil) // epoch 1
		_, pin := clock.Pin()

		w := s.Pins()
		w.Writable(0)
		w.Writable(1)
		w.Drop(1) // releases its pin on 1 first: a pinned frame cannot be dropped
		w.Release()
		clock.Publish(nil) // epoch 2: the drop is published but epoch 1 is pinned
		if got := valAt(s, 1, pin); got != 2 {
			t.Fatalf("dropped page unreadable at pinned epoch: %d", got)
		}
		s.Release()
		clock.Publish(nil) // epoch 3
		if a, b := valAt(s, 0, pin), valAt(s, 1, pin); a != 1 || b != 2 {
			t.Fatalf("released store unreadable at pinned epoch: %d/%d", a, b)
		}
		if clock.Pruners() != base+1 {
			t.Fatalf("release took the store off the clock while pinned: %d pruners", clock.Pruners())
		}

		clock.Unpin(pin)
		if clock.Pruners() != base {
			t.Fatalf("released store still on the clock: %d pruners, want %d", clock.Pruners(), base)
		}
		if st := s.pool.Stats(); st.Resident != 0 || st.Spaces != 0 {
			t.Fatalf("release left the pool holding %+v", st)
		}
		if n := len(*s.dir.Load()); n != 0 {
			t.Fatalf("release left %d slot chunks", n)
		}
	})
}

func TestStoreReloadedPageKeepsStamp(t *testing.T) {
	eachPlacement(t, func(t *testing.T, acct *Accountant, s *Store[*verPage]) {
		clock := acct.Clock()
		clock.Publish(nil)
		clock.Publish(nil)
		put(s, 0, 5) // born in epoch 3
		if pool := acct.Pool(); pool != nil {
			pool.EvictAll()
			if acct.Stats().PhysWrites == 0 {
				t.Fatal("page was not written back")
			}
		}
		r := s.Reader(Latest)
		if p := r.Page(0); p.St != 3 || p.Val != 5 {
			t.Fatalf("reloaded page = %+v, want stamp 3 val 5", p)
		}
		r.Release()
		// Still the in-progress epoch's own version: no clone on touch.
		if p := set(s, 0, 6); p.St != 3 || overlayLen(s) != 0 {
			t.Fatalf("reloaded page cloned within its epoch: stamp %d overlay %d", p.St, overlayLen(s))
		}
	})
}

// TestStoreReleaseUnregistersPruner is the pruner-leak regression: a
// released store's pruner — and through it the whole store — used to stay
// on the clock forever, re-run on every epoch advance.
func TestStoreReleaseUnregistersPruner(t *testing.T) {
	acct := &Accountant{}
	clock := acct.Clock()
	base := clock.Pruners()
	for i := 0; i < 100; i++ {
		s := NewStore[*verPage](acct, verCodec{})
		put(s, 0, i)
		s.Release()
	}
	if clock.Pruners() != base+100 {
		t.Fatalf("%d pruners before publish, want %d", clock.Pruners(), base+100)
	}
	clock.Publish(nil)
	if clock.Pruners() != base {
		t.Fatalf("%d pruners after publish, want %d", clock.Pruners(), base)
	}
}

// TestStoreHitTakesNoPoolLock: reading a resident page takes neither the
// pool's mutex nor the store's lock, at any budget — while both are
// held, a hit still returns.
func TestStoreHitTakesNoPoolLock(t *testing.T) {
	eachPlacement(t, func(t *testing.T, acct *Accountant, s *Store[*verPage]) {
		put(s, 0, 7)
		s.pool.mu.Lock()
		defer s.pool.mu.Unlock()
		s.mu.Lock()
		defer s.mu.Unlock()
		got := make(chan int, 1)
		go func() { got <- valAt(s, 0, Latest) }()
		select {
		case v := <-got:
			if v != 7 {
				t.Fatalf("hit read %d, want 7", v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a hit on a resident page waited for the pool's mutex")
		}
	})
}

// TestStoreReadersVersusWriter races snapshot readers against the
// writer: every epoch rewrites every page to the epoch's number, so a
// reader pinned at epoch e must find e on every page no matter how far
// the writer has moved on. Under a budget the pages outnumber the frames
// four to one, so the readers also race continuous eviction and the
// writer's copy-on-write.
func TestStoreReadersVersusWriter(t *testing.T) {
	eachPlacement(t, func(t *testing.T, acct *Accountant, s *Store[*verPage]) {
		const pages, epochs, readers = 4 * MinPoolFrames, 50, 4
		clock := acct.Clock()
		for id := int64(0); id < pages; id++ {
			put(s, id, 1)
		}
		clock.Publish(nil) // epoch 1 holds 1 everywhere
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					_, pin := clock.Pin()
					r := s.Reader(pin)
					for id := int64(0); id < pages; id++ {
						if got := r.Page(id).Val; uint64(got) != pin {
							t.Errorf("epoch %d reads %d on page %d", pin, got, id)
						}
					}
					r.Release()
					clock.Unpin(pin)
				}
			}()
		}
		for e := 2; e <= epochs; e++ {
			for id := int64(0); id < pages; id++ {
				set(s, id, e)
			}
			clock.Publish(nil)
		}
		close(stop)
		wg.Wait()
		if overlayLen(s) != 0 {
			t.Fatalf("overlay holds %d versions with nothing pinned", overlayLen(s))
		}
	})
}

// evictedStore builds a 16-frame pool holding one store of n pages, all
// written back and out of memory.
func evictedStore(t *testing.T, n int) (*Accountant, *BufferPool, *Store[*verPage]) {
	t.Helper()
	acct := &Accountant{}
	pool := NewBufferPool(acct, MinPoolFrames)
	t.Cleanup(func() { pool.Close() })
	s := NewStore[*verPage](acct, verCodec{})
	for id := 0; id < n; id++ {
		put(s, int64(id), 100+id)
	}
	pool.EvictAll()
	return acct, pool, s
}

// readAsync reads page id's current version on its own goroutine; the
// channel yields the page, or the panic the read ended in.
func readAsync(s *Store[*verPage], id int64) <-chan any {
	done := make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- r
			}
		}()
		r := s.Reader(Latest)
		defer r.Release()
		done <- r.Page(id)
	}()
	return done
}

// awaitPhysReads waits until the accountant has charged n physical reads.
func awaitPhysReads(t *testing.T, acct *Accountant, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for acct.Stats().PhysReads < n {
		if time.Now().After(deadline) {
			t.Fatalf("physical reads stuck at %d, want %d", acct.Stats().PhysReads, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStoreConcurrentMissReadsOnce: a reader that misses on a page
// another reader is already loading waits for that load and then hits —
// one physical read, one miss, and both readers hold the same version.
func TestStoreConcurrentMissReadsOnce(t *testing.T) {
	acct, _, s := evictedStore(t, 1)
	before := acct.Stats()
	acct.SetFaultPolicy(&FaultPolicy{Latency: 50 * time.Millisecond})
	defer acct.SetFaultPolicy(nil)
	first := readAsync(s, 0)
	awaitPhysReads(t, acct, before.PhysReads+1) // the first reader is in its latency
	second := readAsync(s, 0)
	a, b := <-first, <-second
	pa, ok := a.(*verPage)
	if !ok || a != b || pa.Val != 100 {
		t.Fatalf("readers got %v and %v, want one version holding 100", a, b)
	}
	if d := acct.Stats().Sub(before); d.PhysReads != 1 || d.CacheMisses != 1 || d.CacheHits != 1 {
		t.Fatalf("two readers of one page: %d phys, %d misses, %d hits; want 1, 1, 1", d.PhysReads, d.CacheMisses, d.CacheHits)
	}
}

// TestStoreMissReleasesPoolMutex: a miss's physical read runs without the
// pool's mutex — while one is charged and still sleeping in the modeled
// device latency, the mutex is free.
func TestStoreMissReleasesPoolMutex(t *testing.T) {
	acct, pool, s := evictedStore(t, 1)
	before := acct.Stats().PhysReads
	acct.SetFaultPolicy(&FaultPolicy{Latency: 100 * time.Millisecond})
	defer acct.SetFaultPolicy(nil)
	done := readAsync(s, 0)
	awaitPhysReads(t, acct, before+1)
	if !pool.mu.TryLock() {
		t.Fatal("the pool's mutex is held while a miss sleeps in its read")
	}
	pool.mu.Unlock()
	if p, ok := (<-done).(*verPage); !ok || p.Val != 100 {
		t.Fatalf("the miss read %v, want page 0 holding 100", p)
	}
}

// TestStoreFailedMissWakesWaiters: a miss that fails undoes its
// reservation and wakes the readers waiting on it, each of which then
// tries for itself and gets its own typed error; once the fault is gone
// the page reads back.
func TestStoreFailedMissWakesWaiters(t *testing.T) {
	acct, pool, s := evictedStore(t, 1)
	resident := pool.Stats().Resident
	k := pageKey{s.space, 0}
	off := pool.spans[k].off + pageImageHeader
	flip := func() { // flips a payload bit of page 0's image in the backing store
		var b [1]byte
		if _, err := pool.file.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 1
		if _, err := pool.file.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	flip()
	before := acct.Stats().PhysReads
	acct.SetFaultPolicy(&FaultPolicy{FailFirstReads: 1, Latency: 50 * time.Millisecond})
	first := readAsync(s, 0)
	awaitPhysReads(t, acct, before+1) // the first reader sleeps, then faults
	second := readAsync(s, 0)
	if _, ok := (<-first).(*FaultError); !ok {
		t.Fatal("the first reader did not fail with *FaultError")
	}
	if _, ok := (<-second).(*CorruptPageError); !ok {
		t.Fatal("the waiter did not retry into its own *CorruptPageError")
	}
	acct.SetFaultPolicy(nil)
	pool.mu.Lock()
	loading := len(pool.loading)
	pool.mu.Unlock()
	if st := pool.Stats(); st.Resident != resident || loading != 0 {
		t.Fatalf("failed misses left %d resident (was %d) and %d pages marked loading", st.Resident, resident, loading)
	}
	flip()
	if p, ok := (<-readAsync(s, 0)).(*verPage); !ok || p.Val != 100 {
		t.Fatalf("the retry read %v, want page 0 holding 100", p)
	}
}
