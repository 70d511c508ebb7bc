package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
)

// MinPoolFrames is the smallest frame budget a pool accepts; lower
// requests are raised to it. A B-Tree mutation pins its whole descent
// path plus split/merge siblings, and a scan holds its cursor page while
// probing indexes, so a handful of frames must always be available or
// every operation would exhaust the pool.
const MinPoolFrames = 16

// PageCodec serializes one space's in-memory page representation for
// write-back to the backing store. The storage layers (heap files,
// B-Trees) provide an implementation when they register a space.
// AppendPage appends the page's image to dst and must not mutate the
// page. DecodePage returns a fresh object for the image of page in space
// (the pool installs it directly into its store's slot; an error becomes
// a *CorruptPageError). It may keep data until the page leaves memory —
// a miss reads into a recycled image buffer, which goes back to the pool
// then — so nothing a storage layer hands to its callers may alias data.
type PageCodec interface {
	AppendPage(dst []byte, v any) ([]byte, error)
	DecodePage(data []byte, space int32, page int64) (any, error)
}

// pageKey addresses one page: the registered space it belongs to (one
// per heap file or B-Tree) and its page number within that space.
type pageKey struct {
	space int32
	page  int64
}

// frame is the placement state of one page in memory, kept in its
// store's slot: the pin count, the clock algorithm's reference bit, the
// dirty bit and the page-LSN — the WAL watermark the page's latest
// mutation is covered by, which eviction must make durable before
// writing the page back. at is 1 + the frame's position on its pool's
// clock ring, 0 while it is on none (guarded by the pool's mutex).
type frame struct {
	pins  atomic.Int32
	at    int32
	ref   atomic.Bool
	dirty atomic.Bool
	lsn   atomic.Uint64
}

// space is one registered storage object as its pool sees it: its codec,
// and its store's evict, which takes page id out of its slot unless the
// slot is pinned and returns the page it held.
type space struct {
	codec PageCodec
	evict func(id int64) (any, bool)
}

// handle is one clock-ring position: the page in it, its frame (nil when
// free), and the image buffer it was read into with the page decoded —
// both nil for a page created in memory and while a miss loads the page.
type handle struct {
	key     pageKey
	f       *frame
	img     []byte
	decoded any
}

// CorruptPageError reports a page image in the backing store that
// failed an integrity check on read — a torn write (partial page image)
// or bit rot, caught by the image's checksum, by its codec's structural
// check, or when a reader decodes one of its cells. Like *FaultError it
// surfaces by panic from the storage layers and is recovered into an
// ordinary error at the executor boundary.
type CorruptPageError struct {
	Space  int32
	Page   int64
	Reason string
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("pager: corrupt page image for page %d in space %d: %s", e.Page, e.Space, e.Reason)
}

// Page images are framed [crc u32][len u32][payload] in the backing
// store: the CRC (Castagnoli) covers the payload and the length echoes
// it, so a torn (short) write or a flipped bit is detected on read
// before the codec sees the payload.
const pageImageHeader = 8

var pageImageCRC = crc32.MakeTable(crc32.Castagnoli)

// sealPageImage fills in the integrity header reserved at the front of
// buf, whose payload follows it.
func sealPageImage(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], crc32.Checksum(buf[pageImageHeader:], pageImageCRC))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(buf)-pageImageHeader))
}

// unframePageImage verifies and strips the integrity header.
func unframePageImage(buf []byte, k pageKey) ([]byte, error) {
	if len(buf) < pageImageHeader {
		return nil, &CorruptPageError{Space: k.space, Page: k.page, Reason: fmt.Sprintf("image shorter than header (%d bytes)", len(buf))}
	}
	payload := buf[pageImageHeader:]
	if n := binary.LittleEndian.Uint32(buf[4:8]); int(n) != len(payload) {
		return nil, &CorruptPageError{Space: k.space, Page: k.page, Reason: fmt.Sprintf("length mismatch: header says %d, span holds %d", n, len(payload))}
	}
	if crc := crc32.Checksum(payload, pageImageCRC); crc != binary.LittleEndian.Uint32(buf[0:4]) {
		return nil, &CorruptPageError{Space: k.space, Page: k.page, Reason: "checksum mismatch"}
	}
	return payload, nil
}

// span is a page's extent in the backing file. Page images vary in size,
// so spans record both the live length and the allocated capacity; a
// rewrite that still fits stays in place, a grown page is relocated and
// its old extent recycled.
type span struct {
	off int64
	len int
	cap int
}

// BufferPoolStats snapshots a pool's frame occupancy.
type BufferPoolStats struct {
	// Frames is the configured frame budget.
	Frames int
	// Resident is the number of frames currently holding a page.
	Resident int
	// MaxResident is the high-water mark of Resident — never exceeds
	// Frames, which is the bounded-memory guarantee the pool exists for.
	MaxResident int
	// Spaces is the number of storage objects registered and not released.
	Spaces int
}

// BufferPool places every page of the storage objects built against its
// accountant. The pages themselves live in their store's slots (see
// Store); the pool owns the frame budget, a clock (second-chance) ring
// of the resident pages, a temp-file backing store of page images, and
// the image buffers misses read into. With budget 0 the pool never
// evicts, counts no cache traffic and never creates its file. With a
// budget, a page entering memory takes a free ring position, evicting an
// unpinned victim when there is none (written back first if dirty); a
// later access misses, pays one physical read plus decoding, and
// reinstalls the page — so cold and warm runs are genuinely different,
// which the split logical/physical counters in Stats expose. Misses read
// into buffers from free lists of power-of-two size classes, and a
// buffer goes back when its page leaves memory.
//
// Fault composition: physical transfers are charged to the accountant,
// where the FaultPolicy applies (logical charges are bookkeeping only
// under a budget). A write-back fault panics with *FaultError before any
// state changes, so the victim stays resident and dirty; a read fault
// undoes the miss (see load). The caller side recovers the panic at the
// usual operator boundaries.
//
// All methods are safe for concurrent use. A hit never takes the pool's
// mutex; page creation, eviction, write-back and reclamation hold it
// throughout. A miss holds it only to reserve a ring position and to
// install the page: its read and decode run without it (see load), so
// misses on different pages overlap, and a second miss on a page being
// loaded waits for that load instead of reading the page again.
type BufferPool struct {
	acct   *Accountant
	budget int

	mu      sync.Mutex
	loading map[pageKey]bool // pages a miss is reading outside mu
	loaded  sync.Cond        // on mu; broadcast when a load ends either way
	ring    []handle
	hand    int
	spaces  map[int32]space
	nextID  int32

	file      *os.File // created on the first write-back
	spans     map[pageKey]span
	freeSpans []span
	fileEnd   int64

	images  [imageClasses][][]byte // free image buffers by size class
	scratch []byte                 // the write-back image, reused

	resident    int
	maxResident int
}

// NewBufferPool builds a pool with the given frame budget — 0 for none,
// values below MinPoolFrames raised to it — and attaches it to acct,
// detaching and closing any pool previously attached there. Storage
// built against acct afterwards lives in the new pool.
func NewBufferPool(acct *Accountant, frames int) *BufferPool {
	p := newPool(acct, frames)
	if old := acct.pool.Swap(p); old != nil {
		old.Close()
	}
	return p
}

func newPool(acct *Accountant, frames int) *BufferPool {
	if frames > 0 && frames < MinPoolFrames {
		frames = MinPoolFrames
	}
	p := &BufferPool{
		acct:    acct,
		budget:  frames,
		loading: make(map[pageKey]bool),
		ring:    make([]handle, frames),
		spaces:  make(map[int32]space),
		spans:   make(map[pageKey]span),
		scratch: make([]byte, pageImageHeader),
	}
	p.loaded.L = &p.mu
	return p
}

// Close detaches the pool from its accountant and releases the backing
// store. Evicted pages are discarded, not read back — the pool holds
// in-process objects, so close is only meaningful at teardown.
func (p *BufferPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acct.pool.CompareAndSwap(p, nil)
	f := p.file
	if p.file = nil; f == nil {
		return nil
	}
	return f.Close()
}

// hit counts a page access served from memory, under a budget.
func (p *BufferPool) hit() {
	if p.budget > 0 {
		p.acct.cacheHits.Add(1)
	}
}

// unpin releases one pin on f. dirty records that the caller (the
// writer) mutated the page, so eviction must write it back, and stamps
// the page with the WAL's current appended LSN: the engine appends a
// record before applying its mutation, so at the moment a page is
// dirtied the log already holds every record whose effects the page can
// contain — the appended watermark is a (conservative) page-LSN.
func (p *BufferPool) unpin(f *frame, dirty bool) {
	if dirty {
		if lg := p.acct.PageLogger(); lg != nil {
			if v := lg.AppendedLSN(); v > f.lsn.Load() {
				f.lsn.Store(v)
			}
		}
		f.dirty.Store(true)
	}
	if !f.ref.Load() {
		f.ref.Store(true)
	}
	if f.pins.Add(-1) < 0 {
		panic(fmt.Errorf("pager: unpin of an unpinned page"))
	}
}

// enter puts page k, whose frame f is about to hold it, on the clock ring
// at the free position i (from room; -1 without a budget). The caller
// holds p.mu.
func (p *BufferPool) enter(i int, k pageKey, f *frame) {
	f.ref.Store(true)
	if i < 0 {
		return
	}
	p.ring[i] = handle{key: k, f: f}
	f.at = int32(i) + 1
	p.resident++
	p.maxResident = max(p.maxResident, p.resident)
}

// load reads page k, which missed, into its slot sl at the free ring
// position i (from room) and returns the page, pinned. Under p.mu it
// reserves the position for sl's frame — pinned, so the clock skips it —
// marks k as loading, and takes k's span, the space's codec and an image
// buffer. It then releases p.mu for the physical read (charged first:
// the fault policy's latency and check), the image's integrity check and
// the decode, and takes it again to record the buffer and the page in
// the handle, install the page in the slot, clear the mark and wake the
// readers waiting on it. A read fault, a torn or corrupt image (or none,
// a broken invariant) and an image the codec rejects panic — *FaultError
// or *CorruptPageError — after the reservation, the buffer, the pin and
// the mark are undone, and the waiters are woken to try for themselves.
// The caller holds p.mu, and holds it again when load returns or panics.
func (p *BufferPool) load(i int, k pageKey, sl *slot) any {
	f := &sl.frame
	f.pins.Add(1)
	p.enter(i, k, f)
	p.loading[k] = true
	sp, file, codec := p.spans[k], p.file, p.spaces[k.space].codec
	buf := p.image(sp.len)
	var v any
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		if v != nil {
			p.ring[i].img, p.ring[i].decoded = buf, v
			sl.page.Store(v)
		} else {
			p.leave(f, nil)
			p.recycle(buf)
			f.pins.Add(-1)
		}
		delete(p.loading, k)
		p.loaded.Broadcast()
	}()
	p.acct.phys("read")
	if _, err := file.ReadAt(buf, sp.off); err != nil {
		panic(fmt.Errorf("pager: backing store read: %w", err))
	}
	payload, err := unframePageImage(buf, k)
	if err != nil {
		panic(err)
	}
	d, err := codec.DecodePage(payload, k.space, k.page)
	if err != nil {
		panic(&CorruptPageError{Space: k.space, Page: k.page, Reason: err.Error()})
	}
	v = d // the deferred install keys on v
	return d
}

// maxImageShift bounds the recycled image buffers at 1 MiB; a larger
// image is allocated for its read and left to the collector.
const maxImageShift = 20

// imageClasses counts the size classes sizeClass hands out up to
// 1 << maxImageShift.
const imageClasses = (maxImageShift-4)*4 + 5

// sizeClass returns the size class of an n-byte image and the capacity
// of that class's buffers: the smallest 2^e·(1 + k/4), k in 1..4, that
// holds n (8 bytes at least). Four classes per power of two keep a
// buffer at most a quarter larger than its image. The budget counts
// frames, not bytes, so a class's waste is paid once per frame its pages
// hold: in whole powers of two a 140 KB summary-storage page would take
// 256 KB.
func sizeClass(n int) (class, size int) {
	if n <= 8 {
		return 0, 8
	}
	e := bits.Len(uint(n-1)) - 1 // 2^e < n <= 2^(e+1)
	step := 1 << (e - 2)
	k := (n - 1<<e + step - 1) / step
	return (e-3)*4 + k, 1<<e + k*step
}

// image returns an n-byte buffer, recycled from n's size class when one
// is free. The caller holds p.mu.
func (p *BufferPool) image(n int) []byte {
	if n > 1<<maxImageShift {
		return make([]byte, n)
	}
	c, size := sizeClass(n)
	if free := p.images[c]; len(free) > 0 {
		p.images[c] = free[:len(free)-1]
		return free[len(free)-1][:n]
	}
	return make([]byte, n, size)
}

// recycle returns an image buffer to its size class; each class keeps at
// most one buffer per frame. The caller holds p.mu.
func (p *BufferPool) recycle(buf []byte) {
	if cap(buf) > 1<<maxImageShift {
		return
	}
	if c, size := sizeClass(cap(buf)); size == cap(buf) && len(p.images[c]) < p.budget {
		p.images[c] = append(p.images[c], buf)
	}
}

// leave takes f off the clock ring once its page v has left its slot,
// recycling the image buffer the page was read into unless v is not that
// page: a copy-on-write replaced it, and the replaced version, which may
// alias the buffer, lives on. The caller holds p.mu.
func (p *BufferPool) leave(f *frame, v any) {
	if f.at > 0 {
		if h := p.ring[f.at-1]; h.decoded == v {
			p.recycle(h.img)
		}
		p.ring[f.at-1] = handle{}
		f.at = 0
		p.resident--
	}
}

// dropSpace discards every page of a released storage object and forgets
// its codec. Nothing may pin its pages.
func (p *BufferPool) dropSpace(id int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range p.ring {
		if h.f != nil && h.key.space == id {
			p.leave(h.f, nil)
		}
	}
	for k := range p.spans {
		if k.space == id {
			p.freeSpan(k)
		}
	}
	delete(p.spaces, id)
}

// EvictAll evicts every unpinned page (writing back dirty ones) — the
// benchmark harness's "drop caches" switch for measuring cold runs.
func (p *BufferPool) EvictAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.ring {
		if p.ring[i].f != nil {
			p.evict(i)
		}
	}
}

// Stats snapshots frame occupancy.
func (p *BufferPool) Stats() BufferPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return BufferPoolStats{
		Frames:      p.budget,
		Resident:    p.resident,
		MaxResident: p.maxResident,
		Spaces:      len(p.spaces),
	}
}

// room returns a free ring position for a page entering memory, or -1
// without a budget: it sweeps the clock ring, skips pinned pages, gives
// referenced ones a second chance by clearing their bit, and evicts the
// first unreferenced unpinned page. Two full sweeps finding only pinned
// pages means the budget is exhausted — a panic the executor surfaces as
// a query error, since no progress is possible without unpinning. The
// caller holds p.mu.
func (p *BufferPool) room() int {
	if p.budget == 0 {
		return -1
	}
	for sweep := 0; sweep <= 2*len(p.ring); sweep++ {
		i := p.hand
		p.hand = (p.hand + 1) % len(p.ring)
		f := p.ring[i].f
		switch {
		case f == nil:
			return i
		case f.pins.Load() > 0:
		case f.ref.Load():
			f.ref.Store(false)
		case p.evict(i):
			return i
		}
	}
	panic(fmt.Errorf("pager: buffer pool exhausted: all %d frames pinned", p.budget))
}

// evict takes the page at ring position i out of memory unless a reader
// pinned it since the caller looked. The caller holds p.mu.
func (p *BufferPool) evict(i int) bool {
	h := p.ring[i]
	v, ok := p.spaces[h.key.space].evict(h.key.page)
	if !ok {
		return false
	}
	p.acct.evictions.Add(1)
	p.leave(h.f, v)
	return true
}

// writeBack stores dirty page k, v, whose page-LSN is lsn, in an order
// that leaves everything consistent when it fails: force the WAL through
// the page-LSN (the write-ahead rule — may block on an fsync, may fail),
// encode into the scratch image (pure), charge the physical write (may
// panic — nothing has changed yet), then update the backing store. The
// caller holds p.mu and the page's store lock.
func (p *BufferPool) writeBack(k pageKey, v any, lsn uint64) {
	if lg := p.acct.PageLogger(); lg != nil && lsn > 0 {
		if err := lg.Flush(lsn); err != nil {
			panic(fmt.Errorf("pager: wal flush before write-back of page %d in space %d: %w", k.page, k.space, err))
		}
	}
	buf, err := p.spaces[k.space].codec.AppendPage(p.scratch[:pageImageHeader], v)
	if err != nil {
		panic(fmt.Errorf("pager: page encode: %w", err))
	}
	p.scratch = buf
	sealPageImage(buf)
	p.acct.phys("write") // may panic *FaultError before any state changes
	p.writeSpan(k, buf)
}

// writeSpan stores a sealed page image, reusing the existing extent when
// it still fits, else a recycled extent, else fresh space at the file
// end. A short write — the torn-page case a real device can produce — is
// surfaced immediately rather than left for the read side, which would
// still catch it by checksum. The first write-back creates the backing
// file: an unlinked temp file, released on Close or process exit;
// failing to create one panics, since it means the environment has no
// writable temp directory. The caller holds p.mu.
func (p *BufferPool) writeSpan(k pageKey, framed []byte) {
	if p.file == nil {
		f, err := os.CreateTemp("", "pager-pool-*.pages")
		if err != nil {
			panic(fmt.Errorf("pager: buffer pool backing store: %w", err))
		}
		os.Remove(f.Name()) // nothing ever needs the name again
		p.file = f
	}
	sp, ok := p.spans[k]
	if ok && sp.cap >= len(framed) {
		sp.len = len(framed)
	} else {
		if ok {
			p.freeSpans = append(p.freeSpans, sp)
		}
		sp = p.allocSpan(len(framed))
	}
	n, err := p.file.WriteAt(framed, sp.off)
	if err != nil {
		panic(fmt.Errorf("pager: backing store write: %w", err))
	}
	if n != len(framed) {
		panic(fmt.Errorf("pager: short backing store write: %d of %d bytes", n, len(framed)))
	}
	p.spans[k] = sp
}

// allocSpan finds an extent of at least n bytes: first fit from the
// recycled list, else the file end. The caller holds p.mu.
func (p *BufferPool) allocSpan(n int) span {
	for i, sp := range p.freeSpans {
		if sp.cap >= n {
			p.freeSpans = append(p.freeSpans[:i], p.freeSpans[i+1:]...)
			sp.len = n
			return sp
		}
	}
	sp := span{off: p.fileEnd, len: n, cap: n}
	p.fileEnd += int64(n)
	return sp
}

// freeSpan recycles k's backing extent; the caller holds p.mu.
func (p *BufferPool) freeSpan(k pageKey) {
	if sp, ok := p.spans[k]; ok {
		p.freeSpans = append(p.freeSpans, sp)
		delete(p.spans, k)
	}
}
