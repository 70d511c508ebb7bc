package pager

import (
	"encoding/binary"
	"errors"
	"testing"
)

// testPage is the page type the pool tests cache: a mutable payload so
// dirty write-back and round-tripping are observable.
type testPage struct {
	Vals []int64
}

// testCodec encodes a testPage as its value count, then each value, in
// varints.
type testCodec struct{}

func (testCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	vals := v.(*testPage).Vals
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, x := range vals {
		dst = binary.AppendVarint(dst, x)
	}
	return dst, nil
}

func (testCodec) DecodePage(data []byte, _ int32, _ int64) (any, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) {
		return nil, errors.New("malformed value count")
	}
	p := &testPage{Vals: make([]int64, n)}
	for i := range p.Vals {
		x, m := binary.Varint(data[k:])
		if m <= 0 {
			return nil, errors.New("malformed value")
		}
		p.Vals[i], k = x, k+m
	}
	if k != len(data) {
		return nil, errors.New("trailing bytes")
	}
	return p, nil
}

func newTestPool(t *testing.T, frames int) (*Accountant, *BufferPool, int32) {
	t.Helper()
	acct := &Accountant{}
	pool := NewBufferPool(acct, frames)
	t.Cleanup(func() { pool.Close() })
	return acct, pool, pool.NewSpace(testCodec{})
}

func TestBufferPoolRoundTripThroughEviction(t *testing.T) {
	acct, pool, space := newTestPool(t, MinPoolFrames)
	const n = 3 * MinPoolFrames
	for i := 0; i < n; i++ {
		pool.NewPage(space, int64(i), &testPage{Vals: []int64{int64(i), int64(i) * 10}})
		pool.Unpin(space, int64(i), true)
	}
	st := pool.Stats()
	if st.Resident > st.Frames || st.MaxResident > st.Frames {
		t.Fatalf("residency exceeds budget: %+v", st)
	}
	for i := n - 1; i >= 0; i-- {
		p := pool.Get(space, int64(i)).(*testPage)
		if len(p.Vals) != 2 || p.Vals[0] != int64(i) || p.Vals[1] != int64(i)*10 {
			t.Fatalf("page %d corrupted after eviction round trip: %+v", i, p)
		}
		pool.Unpin(space, int64(i), false)
	}
	s := acct.Stats()
	if s.CacheMisses == 0 || s.Evictions == 0 || s.PhysReads == 0 || s.PhysWrites == 0 {
		t.Fatalf("expected misses/evictions/physical traffic with %d pages in %d frames: %+v",
			n, MinPoolFrames, s)
	}
	if s.PageReads != 0 || s.PageWrites != 0 {
		t.Fatalf("pool traffic must not charge logical counters: %+v", s)
	}
}

func TestBufferPoolHitsAreFree(t *testing.T) {
	acct, pool, space := newTestPool(t, MinPoolFrames)
	pool.NewPage(space, 1, &testPage{Vals: []int64{7}})
	pool.Unpin(space, 1, true)
	before := acct.Stats()
	for i := 0; i < 10; i++ {
		pool.Get(space, 1)
		pool.Unpin(space, 1, false)
	}
	d := acct.Stats().Sub(before)
	if d.CacheHits != 10 || d.CacheMisses != 0 || d.PhysReads != 0 || d.PhysWrites != 0 {
		t.Fatalf("resident page accesses should be pure hits: %+v", d)
	}
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	_, pool, space := newTestPool(t, MinPoolFrames)
	pool.NewPage(space, 0, &testPage{Vals: []int64{42}}) // stays pinned
	for i := 1; i < 4*MinPoolFrames; i++ {
		pool.NewPage(space, int64(i), &testPage{})
		pool.Unpin(space, int64(i), false)
	}
	// The pinned page must still be resident: getting it is a pure hit.
	acct := pool.acct
	before := acct.Stats()
	p := pool.Get(space, 0).(*testPage)
	if p.Vals[0] != 42 {
		t.Fatalf("pinned page content changed: %+v", p)
	}
	if d := acct.Stats().Sub(before); d.CacheHits != 1 || d.CacheMisses != 0 {
		t.Fatalf("pinned page was evicted: %+v", d)
	}
}

func TestBufferPoolExhaustionPanics(t *testing.T) {
	_, pool, space := newTestPool(t, MinPoolFrames)
	for i := 0; i < MinPoolFrames; i++ {
		pool.NewPage(space, int64(i), &testPage{}) // all pinned
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected exhaustion panic with every frame pinned")
		}
	}()
	pool.NewPage(space, int64(MinPoolFrames), &testPage{})
}

func TestBufferPoolSecondChance(t *testing.T) {
	acct, pool, space := newTestPool(t, MinPoolFrames)
	for i := 0; i < MinPoolFrames; i++ {
		pool.NewPage(space, int64(i), &testPage{Vals: []int64{int64(i)}})
		pool.Unpin(space, int64(i), true)
	}
	// Every frame is referenced, so this eviction sweeps once clearing
	// all reference bits, then claims the frame at the hand (page 0).
	pool.NewPage(space, 100, &testPage{})
	pool.Unpin(space, 100, false)
	// Re-reference page 1 — now the only unpinned frame ahead of the
	// hand with its bit set.
	pool.Get(space, 1)
	pool.Unpin(space, 1, false)
	// Next eviction: the clock skips page 1 (second chance, clearing its
	// bit) and evicts page 2 instead.
	pool.NewPage(space, 101, &testPage{})
	pool.Unpin(space, 101, false)
	before := acct.Stats()
	pool.Get(space, 1)
	pool.Unpin(space, 1, false)
	if d := acct.Stats().Sub(before); d.CacheHits != 1 || d.CacheMisses != 0 {
		t.Fatalf("re-referenced page did not get its second chance: %+v", d)
	}
	pool.Get(space, 2)
	pool.Unpin(space, 2, false)
	if d := acct.Stats().Sub(before); d.CacheMisses != 1 {
		t.Fatalf("unreferenced page should have been the victim: %+v", d)
	}
}

func TestBufferPoolWriteBackFaultLeavesPoolConsistent(t *testing.T) {
	acct, pool, space := newTestPool(t, MinPoolFrames)
	for i := 0; i < MinPoolFrames; i++ {
		pool.NewPage(space, int64(i), &testPage{Vals: []int64{int64(i)}})
		pool.Unpin(space, int64(i), true)
	}
	acct.SetFaultPolicy(&FaultPolicy{FailFirstWrites: 1})
	var fe *FaultError
	func() {
		defer func() {
			if r := recover(); r != nil {
				err, _ := r.(error)
				if !errors.As(err, &fe) {
					panic(r)
				}
			}
		}()
		pool.NewPage(space, 500, &testPage{}) // must evict a dirty page
	}()
	if fe == nil {
		t.Fatal("expected a *FaultError from the faulted write-back")
	}
	acct.SetFaultPolicy(nil)
	// Pool must be fully consistent: every original page intact, and the
	// failed operation succeeds on retry.
	pool.NewPage(space, 500, &testPage{Vals: []int64{500}})
	pool.Unpin(space, 500, true)
	for i := 0; i < MinPoolFrames; i++ {
		p := pool.Get(space, int64(i)).(*testPage)
		if p.Vals[0] != int64(i) {
			t.Fatalf("page %d lost after faulted write-back: %+v", i, p)
		}
		pool.Unpin(space, int64(i), false)
	}
}

func TestBufferPoolDropSpace(t *testing.T) {
	_, pool, space := newTestPool(t, MinPoolFrames)
	keep := pool.NewSpace(testCodec{})
	pool.NewPage(keep, 1, &testPage{Vals: []int64{9}})
	pool.Unpin(keep, 1, true)
	for i := 0; i < 2*MinPoolFrames; i++ {
		pool.NewPage(space, int64(i), &testPage{})
		pool.Unpin(space, int64(i), false)
	}
	pool.DropSpace(space)
	if p := pool.Get(keep, 1).(*testPage); p.Vals[0] != 9 {
		t.Fatalf("surviving space corrupted: %+v", p)
	}
	pool.Unpin(keep, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic reading a dropped space's page")
		}
	}()
	pool.Get(space, 0)
}

// TestFaultedReadAccountingInterleaved is the satellite regression: a
// fault in the middle of a multi-page charge must leave the counters
// reflecting only the pages actually reached (the pre-fix Accountant
// charged all n reads and slept the full latency before injecting).
func TestFaultedReadAccountingInterleaved(t *testing.T) {
	var a Accountant
	a.SetFaultPolicy(&FaultPolicy{EveryKthRead: 4})
	if fe := catchFault(func() { a.Read(10) }); fe == nil {
		t.Fatal("expected the 4th of 10 reads to fault")
	}
	if got := a.Stats().PageReads; got != 4 {
		t.Fatalf("faulted Read(10) charged %d reads, want 4 (pages reached)", got)
	}

	a.Reset()
	a.SetFaultPolicy(&FaultPolicy{FailFirstWrites: 1})
	if fe := catchFault(func() { a.Write(10) }); fe == nil {
		t.Fatal("expected the 1st of 10 writes to fault")
	}
	if got := a.Stats().PageWrites; got != 1 {
		t.Fatalf("faulted Write(10) charged %d writes, want 1", got)
	}

	a.Reset()
	a.SetFaultPolicy(&FaultPolicy{EveryKthRead: 2})
	if fe := catchFault(func() { a.ReadNode(5) }); fe == nil {
		t.Fatal("expected the 2nd of 5 node reads to fault")
	}
	if s := a.Stats(); s.NodeReads != 2 || s.PageReads != 2 {
		t.Fatalf("faulted ReadNode(5) charged nodes=%d pages=%d, want 2/2", s.NodeReads, s.PageReads)
	}
}

func TestPooledAccountantSkipsLogicalFaults(t *testing.T) {
	acct, pool, space := newTestPool(t, MinPoolFrames)
	pool.NewPage(space, 1, &testPage{})
	pool.Unpin(space, 1, true)
	// With a pool attached, logical charges are bookkeeping only; the
	// policy fires on physical transfers instead.
	acct.SetFaultPolicy(&FaultPolicy{FailFirstReads: 1, FailFirstWrites: 1})
	acct.Read(5)
	acct.Write(5)
	if s := acct.Stats(); s.PageReads != 5 || s.PageWrites != 5 {
		t.Fatalf("pooled logical charges lost: %+v", s)
	}
	// The same policy does fire on physical transfers: the write-back of
	// the dirty page during EvictAll hits the write fault.
	if fe := catchFault(pool.EvictAll); fe == nil {
		t.Fatal("expected EvictAll write-back to fault")
	}
}

// TestBufferPoolPrefetch pins the prefetch contract: evicted pages come
// back as unpinned resident frames charged as physical reads plus
// Prefetched ticks (never cache misses), resident and never-evicted
// pages are skipped, and a pool with no free frames stops early instead
// of evicting victims.
func TestBufferPoolPrefetch(t *testing.T) {
	acct, pool, space := newTestPool(t, MinPoolFrames)
	const n = MinPoolFrames + 4
	for i := 0; i < n; i++ {
		pool.NewPage(space, int64(i), &testPage{Vals: []int64{int64(i)}})
		pool.Unpin(space, int64(i), true)
	}
	pool.EvictAll()

	before := acct.Stats()
	if got := pool.Prefetch(space, []int64{0, 1, 2}); got != 3 {
		t.Fatalf("Prefetch installed %d, want 3", got)
	}
	d := acct.Stats().Sub(before)
	if d.Prefetched != 3 || d.PhysReads != 3 || d.CacheMisses != 0 {
		t.Fatalf("prefetch delta = %+v, want 3 prefetched, 3 phys, 0 misses", d)
	}

	// The demand Get is now a hit with no further physical traffic, and
	// the page round-tripped intact.
	if v := pool.Get(space, 1).(*testPage); v.Vals[0] != 1 {
		t.Fatalf("prefetched page corrupt: %+v", v)
	}
	pool.Unpin(space, 1, false)
	d = acct.Stats().Sub(before)
	if d.CacheHits != 1 || d.PhysReads != 3 {
		t.Fatalf("post-Get delta = %+v, want 1 hit and still 3 phys", d)
	}

	// Resident pages are skipped outright.
	if got := pool.Prefetch(space, []int64{0, 1, 2}); got != 0 {
		t.Fatalf("re-prefetch installed %d, want 0", got)
	}

	// With every frame pinned there is no free frame and no victim may
	// be taken: prefetch installs nothing.
	pool.EvictAll()
	for i := 0; i < MinPoolFrames; i++ {
		pool.Get(space, int64(i))
	}
	if got := pool.Prefetch(space, []int64{MinPoolFrames, MinPoolFrames + 1}); got != 0 {
		t.Fatalf("prefetch into a fully pinned pool installed %d, want 0", got)
	}
	for i := 0; i < MinPoolFrames; i++ {
		pool.Unpin(space, int64(i), false)
	}

	// A page that was never written out has no backing span: skipped.
	pool.NewPage(space, int64(n), &testPage{Vals: []int64{int64(n)}})
	pool.Unpin(space, int64(n), true)
	pool.Drop(space, int64(n+1)) // no-op guard; page n+1 does not exist
	if got := pool.Prefetch(space, []int64{int64(n + 1)}); got != 0 {
		t.Fatalf("prefetch of span-less page installed %d, want 0", got)
	}
}

// rawPage is a page that keeps the image it was decoded from, as a heap
// page read back from the pool does.
type rawPage struct{ img []byte }

type rawCodec struct{}

func (rawCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	return append(dst, v.(*rawPage).img...), nil
}

func (rawCodec) DecodePage(data []byte, _ int32, _ int64) (any, error) {
	return &rawPage{img: data}, nil
}

// TestSetValueKeepsReplacedImage: SetValue hands the frame's image buffer
// to the replaced page, which moves to a version chain and outlives the
// frame — so evicting the frame must not recycle the buffer, and a page
// read into a recycled buffer later must not show through the replaced
// page. The buffers of frames that never gave theirs up are recycled.
func TestSetValueKeepsReplacedImage(t *testing.T) {
	_, pool, _ := newTestPool(t, MinPoolFrames)
	space := pool.NewSpace(rawCodec{})
	page := func(id int64, text string) {
		pool.NewPage(space, id, &rawPage{img: []byte(text)})
		pool.Unpin(space, id, true)
	}
	page(0, "page zero, version one")
	pool.EvictAll()
	old := pool.Get(space, 0).(*rawPage) // aliases the frame's buffer
	pool.SetValue(space, 0, &rawPage{img: []byte("page zero, version two")})
	pool.Unpin(space, 0, true)
	pool.EvictAll() // page 0's frame is released with nothing to recycle

	page(1, "page one, the only one.")
	pool.EvictAll()
	pool.Get(space, 1) // reads into a fresh buffer of the same size class
	pool.Unpin(space, 1, false)
	if got := string(old.img); got != "page zero, version one" {
		t.Fatalf("replaced page reads %q after its frame's buffer was reused", got)
	}
	if got := pool.Get(space, 0).(*rawPage); string(got.img) != "page zero, version two" {
		t.Fatalf("page 0 reads back %q", got.img)
	}
	pool.Unpin(space, 0, false)

	pool.EvictAll()
	recycled := 0
	for _, free := range pool.images {
		recycled += len(free)
	}
	if recycled != 2 {
		t.Fatalf("%d image buffers recycled after evicting pages 0 and 1 read back clean, want 2", recycled)
	}
}
