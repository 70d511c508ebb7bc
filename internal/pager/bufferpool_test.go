package pager

import (
	"encoding/binary"
	"errors"
	"testing"
)

// testPage is the page type the pool tests keep: a mutable payload so
// dirty write-back and round-tripping are observable, plus its stamp.
type testPage struct {
	Vals []int64
	St   uint64
}

func (p *testPage) Stamp() uint64 { return p.St }

func (p *testPage) CloneAt(st uint64) *testPage {
	return &testPage{Vals: append([]int64(nil), p.Vals...), St: st}
}

// testCodec encodes a testPage as its stamp, its value count, then each
// value, in varints.
type testCodec struct{}

func (testCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	p := v.(*testPage)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, p.St), uint64(len(p.Vals)))
	for _, x := range p.Vals {
		dst = binary.AppendVarint(dst, x)
	}
	return dst, nil
}

func (testCodec) DecodePage(data []byte, _ int32, _ int64) (any, error) {
	st, j := binary.Uvarint(data)
	if j <= 0 {
		return nil, errors.New("malformed stamp")
	}
	n, k := binary.Uvarint(data[j:])
	if k <= 0 || n > uint64(len(data)) {
		return nil, errors.New("malformed value count")
	}
	p := &testPage{Vals: make([]int64, n), St: st}
	k += j
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

// newTestPool builds a pool with the given frame budget and one store in
// it.
func newTestPool(t *testing.T, frames int) (*Accountant, *BufferPool, *Store[*testPage]) {
	t.Helper()
	acct := &Accountant{}
	pool := NewBufferPool(acct, frames)
	t.Cleanup(func() { pool.Close() })
	return acct, pool, NewStore[*testPage](acct, testCodec{})
}

// create makes page id holding vals and unpins it dirty.
func create(s *Store[*testPage], id int64, vals ...int64) {
	s.New(id, &testPage{Vals: vals, St: s.Stamp()})
	s.Unpin(id, true)
}

// get reads page id's current version, holding no pin afterwards.
func get(s *Store[*testPage], id int64) *testPage {
	r := s.Reader(Latest)
	defer r.Release()
	return r.Page(id)
}

// hold pins page id's current version until the returned func runs.
func hold(s *Store[*testPage], id int64) (*testPage, func()) {
	r := s.Reader(Latest)
	p := r.Page(id)
	return p, r.Release
}

func TestBufferPoolRoundTripThroughEviction(t *testing.T) {
	acct, pool, s := newTestPool(t, MinPoolFrames)
	const n = 3 * MinPoolFrames
	for i := int64(0); i < n; i++ {
		create(s, i, i, i*10)
	}
	st := pool.Stats()
	if st.Resident > st.Frames || st.MaxResident > st.Frames {
		t.Fatalf("residency exceeds budget: %+v", st)
	}
	for i := int64(n - 1); i >= 0; i-- {
		if p := get(s, i); len(p.Vals) != 2 || p.Vals[0] != i || p.Vals[1] != i*10 {
			t.Fatalf("page %d corrupted after eviction round trip: %+v", i, p)
		}
	}
	d := acct.Stats()
	if d.CacheMisses == 0 || d.Evictions == 0 || d.PhysReads == 0 || d.PhysWrites == 0 {
		t.Fatalf("expected misses/evictions/physical traffic with %d pages in %d frames: %+v",
			n, MinPoolFrames, d)
	}
	if d.PageReads != 0 || d.PageWrites != 0 {
		t.Fatalf("pool traffic must not charge logical counters: %+v", d)
	}
}

func TestBufferPoolHitsAreFree(t *testing.T) {
	acct, _, s := newTestPool(t, MinPoolFrames)
	create(s, 1, 7)
	before := acct.Stats()
	for i := 0; i < 10; i++ {
		get(s, 1)
	}
	d := acct.Stats().Sub(before)
	if d.CacheHits != 10 || d.CacheMisses != 0 || d.PhysReads != 0 || d.PhysWrites != 0 {
		t.Fatalf("resident page accesses should be pure hits: %+v", d)
	}
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	acct, _, s := newTestPool(t, MinPoolFrames)
	s.New(0, &testPage{Vals: []int64{42}, St: s.Stamp()}) // stays pinned
	for i := int64(1); i < 4*MinPoolFrames; i++ {
		create(s, i)
	}
	// The pinned page must still be resident: getting it is a pure hit.
	before := acct.Stats()
	if p := get(s, 0); p.Vals[0] != 42 {
		t.Fatalf("pinned page content changed: %+v", p)
	}
	if d := acct.Stats().Sub(before); d.CacheHits != 1 || d.CacheMisses != 0 {
		t.Fatalf("pinned page was evicted: %+v", d)
	}
}

func TestBufferPoolExhaustionPanics(t *testing.T) {
	_, _, s := newTestPool(t, MinPoolFrames)
	for i := int64(0); i < MinPoolFrames; i++ {
		s.New(i, &testPage{}) // all pinned
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected exhaustion panic with every frame pinned")
		}
	}()
	s.New(MinPoolFrames, &testPage{})
}

func TestBufferPoolSecondChance(t *testing.T) {
	acct, _, s := newTestPool(t, MinPoolFrames)
	for i := int64(0); i < MinPoolFrames; i++ {
		create(s, i, i)
	}
	// Every page is referenced, so this eviction sweeps once clearing
	// all reference bits, then claims the position at the hand (page 0).
	create(s, 100)
	// Re-reference page 1 — now the only unpinned page ahead of the
	// hand with its bit set.
	get(s, 1)
	// Next eviction: the clock skips page 1 (second chance, clearing its
	// bit) and evicts page 2 instead.
	create(s, 101)
	before := acct.Stats()
	get(s, 1)
	if d := acct.Stats().Sub(before); d.CacheHits != 1 || d.CacheMisses != 0 {
		t.Fatalf("re-referenced page did not get its second chance: %+v", d)
	}
	get(s, 2)
	if d := acct.Stats().Sub(before); d.CacheMisses != 1 {
		t.Fatalf("unreferenced page should have been the victim: %+v", d)
	}
}

func TestBufferPoolWriteBackFaultLeavesPoolConsistent(t *testing.T) {
	acct, _, s := newTestPool(t, MinPoolFrames)
	for i := int64(0); i < MinPoolFrames; i++ {
		create(s, i, i)
	}
	acct.SetFaultPolicy(&FaultPolicy{FailFirstWrites: 1})
	if fe := catchFault(func() { create(s, 500) }); fe == nil { // must evict a dirty page
		t.Fatal("expected a *FaultError from the faulted write-back")
	}
	acct.SetFaultPolicy(nil)
	// Everything must be consistent: every original page intact, and the
	// failed operation succeeds on retry.
	create(s, 500, 500)
	for i := int64(0); i < MinPoolFrames; i++ {
		if p := get(s, i); p.Vals[0] != i {
			t.Fatalf("page %d lost after faulted write-back: %+v", i, p)
		}
	}
}

// TestBufferPoolDropSpace: a released store's pages leave the pool and
// its space is forgotten, while a store sharing the pool is untouched.
func TestBufferPoolDropSpace(t *testing.T) {
	acct, pool, s := newTestPool(t, MinPoolFrames)
	keep := NewStore[*testPage](acct, testCodec{})
	create(keep, 1, 9)
	for i := int64(0); i < 2*MinPoolFrames; i++ {
		create(s, i)
	}
	if got := pool.Stats().Spaces; got != 2 {
		t.Fatalf("%d live spaces, want 2", got)
	}
	s.Release()
	acct.Clock().Publish(nil)
	if st := pool.Stats(); st.Spaces != 1 || st.Resident > 1 {
		t.Fatalf("released store still in the pool: %+v", st)
	}
	if p := get(keep, 1); p.Vals[0] != 9 {
		t.Fatalf("surviving space corrupted: %+v", p)
	}
	mustPanicMissing(t, "page of a released store", func() { get(s, 0) })
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
	acct, pool, s := newTestPool(t, MinPoolFrames)
	create(s, 1)
	// Under a budget, logical charges are bookkeeping only; the policy
	// fires on physical transfers instead.
	acct.SetFaultPolicy(&FaultPolicy{FailFirstReads: 1, FailFirstWrites: 1})
	acct.Read(5)
	acct.Write(5)
	if st := acct.Stats(); st.PageReads != 5 || st.PageWrites != 5 {
		t.Fatalf("pooled logical charges lost: %+v", st)
	}
	// The same policy does fire on physical transfers: the write-back of
	// the dirty page during EvictAll hits the write fault.
	if fe := catchFault(pool.EvictAll); fe == nil {
		t.Fatal("expected EvictAll write-back to fault")
	}
}

// TestBufferPoolPrefetch pins the prefetch contract: evicted pages come
// back as unpinned resident pages charged as physical reads plus
// Prefetched ticks (never cache misses), resident pages and pages the
// store does not hold are skipped, a fully pinned pool installs nothing,
// and a full pool with nothing pinned makes room by the clock.
func TestBufferPoolPrefetch(t *testing.T) {
	acct, pool, s := newTestPool(t, MinPoolFrames)
	const n = MinPoolFrames + 4
	for i := int64(0); i < n; i++ {
		create(s, i, i)
	}
	pool.EvictAll()
	prefetched := func(ids ...int64) int64 {
		before := acct.Stats().Prefetched
		s.Prefetch(ids)
		return acct.Stats().Prefetched - before
	}

	before := acct.Stats()
	if got := prefetched(0, 1, 2); got != 3 {
		t.Fatalf("Prefetch installed %d, want 3", got)
	}
	d := acct.Stats().Sub(before)
	if d.Prefetched != 3 || d.PhysReads != 3 || d.CacheMisses != 0 {
		t.Fatalf("prefetch delta = %+v, want 3 prefetched, 3 phys, 0 misses", d)
	}

	// The demand access is now a hit with no further physical traffic,
	// and the page round-tripped intact.
	if v := get(s, 1); v.Vals[0] != 1 {
		t.Fatalf("prefetched page corrupt: %+v", v)
	}
	d = acct.Stats().Sub(before)
	if d.CacheHits != 1 || d.PhysReads != 3 {
		t.Fatalf("post-Get delta = %+v, want 1 hit and still 3 phys", d)
	}

	// Resident pages are skipped outright.
	if got := prefetched(0, 1, 2); got != 0 {
		t.Fatalf("re-prefetch installed %d, want 0", got)
	}

	// With every page pinned there is no free position and no victim may
	// be taken: prefetch installs nothing.
	pool.EvictAll()
	var unpin []func()
	for i := int64(0); i < MinPoolFrames; i++ {
		_, release := hold(s, i)
		unpin = append(unpin, release)
	}
	if got := prefetched(MinPoolFrames, MinPoolFrames+1); got != 0 {
		t.Fatalf("prefetch into a fully pinned pool installed %d, want 0", got)
	}
	for _, release := range unpin {
		release()
	}

	// A full pool with nothing pinned: the clock clears reference bits
	// and evicts, so prefetch still installs.
	before = acct.Stats()
	if got := prefetched(MinPoolFrames, MinPoolFrames+1); got != 2 {
		t.Fatalf("prefetch into a full, unpinned pool installed %d, want 2", got)
	}
	if d := acct.Stats().Sub(before); d.Evictions != 2 {
		t.Fatalf("full-pool prefetch delta = %+v, want 2 evictions", d)
	}
	if st := pool.Stats(); st.Resident != MinPoolFrames {
		t.Fatalf("%d resident after prefetch into a full pool, want %d", st.Resident, MinPoolFrames)
	}

	// A page the store does not hold is skipped.
	if got := prefetched(n + 1); got != 0 {
		t.Fatalf("prefetch of an unknown page installed %d, want 0", got)
	}
}

// rawPage is a page that keeps the image it was decoded from, as a heap
// page read back from the pool does: an 8-byte stamp, then the text.
type rawPage struct {
	img []byte
	st  uint64
}

func (p *rawPage) Stamp() uint64 { return p.st }

func (p *rawPage) CloneAt(st uint64) *rawPage {
	return &rawPage{img: append([]byte(nil), p.img...), st: st}
}

type rawCodec struct{}

func (rawCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	p := v.(*rawPage)
	return append(binary.LittleEndian.AppendUint64(dst, p.st), p.img...), nil
}

func (rawCodec) DecodePage(data []byte, _ int32, _ int64) (any, error) {
	return &rawPage{img: data[8:], st: binary.LittleEndian.Uint64(data)}, nil
}

// TestCopyOnWriteKeepsReplacedImage: a copy-on-write hands the slot's
// image buffer to the replaced page, which moves to a version chain and
// outlives the slot's hold on it — so evicting the slot must not recycle
// the buffer, and a page read into a recycled buffer later must not show
// through the replaced page. The buffers of slots that never gave
// theirs up are recycled.
func TestCopyOnWriteKeepsReplacedImage(t *testing.T) {
	acct := &Accountant{}
	pool := NewBufferPool(acct, MinPoolFrames)
	t.Cleanup(func() { pool.Close() })
	s := NewStore[*rawPage](acct, rawCodec{})
	page := func(id int64, text string) {
		s.New(id, &rawPage{img: []byte(text), st: s.Stamp()})
		s.Unpin(id, true)
	}
	read := func(id int64) *rawPage {
		r := s.Reader(Latest)
		defer r.Release()
		return r.Page(id)
	}
	page(0, "page zero, version one")
	pool.EvictAll()
	old := read(0) // aliases the slot's buffer
	acct.Clock().Publish(nil)
	copy(s.Writable(0).img, "page zero, version two")
	s.Unpin(0, true)
	pool.EvictAll() // page 0's slot is emptied with nothing to recycle

	page(1, "page one, the only one.")
	pool.EvictAll()
	read(1) // reads into a fresh buffer of the same size class
	if got := string(old.img); got != "page zero, version one" {
		t.Fatalf("replaced page reads %q after its slot's buffer was reused", got)
	}
	if got := read(0); string(got.img) != "page zero, version two" {
		t.Fatalf("page 0 reads back %q", got.img)
	}

	pool.EvictAll()
	recycled := 0
	for _, free := range pool.images {
		recycled += len(free)
	}
	if recycled != 2 {
		t.Fatalf("%d image buffers recycled after evicting pages 0 and 1 read back clean, want 2", recycled)
	}
}

// TestImageSizeClasses: every image length up to the recycling bound
// maps to a class whose buffers hold it with at most a quarter to spare
// (8 bytes at least), classes grow with the length one at a time, and a
// class's own capacity maps back to it — what recycle relies on to file
// a buffer under the class image took it from.
func TestImageSizeClasses(t *testing.T) {
	prev, prevSize := 0, 8
	for n := 1; n <= 1<<maxImageShift; n++ {
		c, size := sizeClass(n)
		if size < n || size > max(8, n+(n+3)/4) {
			t.Fatalf("sizeClass(%d) = class %d of %d bytes", n, c, size)
		}
		if c != prev && (c != prev+1 || size <= prevSize) || c == prev && size != prevSize || c >= imageClasses {
			t.Fatalf("sizeClass(%d) = %d/%d after %d/%d", n, c, size, prev, prevSize)
		}
		if c2, s2 := sizeClass(size); c2 != c || s2 != size {
			t.Fatalf("capacity %d of class %d maps to class %d/%d", size, c, c2, s2)
		}
		prev, prevSize = c, size
	}
	if prev != imageClasses-1 {
		t.Fatalf("%d classes used, imageClasses = %d", prev+1, imageClasses)
	}
}
