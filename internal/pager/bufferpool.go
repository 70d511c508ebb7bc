package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync"
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
// (the pool installs it directly into a frame; an error becomes a
// *CorruptPageError). It may keep data until the page's frame is
// released — a miss reads into a recycled image buffer, which goes back
// to the pool then — so nothing a storage layer hands to its callers may
// alias data.
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

// frame is one buffer slot: the cached page object, the image buffer it
// was decoded from (if any), the pin count, dirty bit, the clock
// algorithm's reference bit, and the page-LSN — the WAL watermark the
// page's latest mutation is covered by, which eviction must make durable
// before writing the page back.
type frame struct {
	key   pageKey
	val   any
	img   []byte
	pins  int
	dirty bool
	ref   bool
	valid bool
	lsn   uint64
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
	// Spaces is the number of registered page spaces.
	Spaces int
}

// BufferPool is a fixed-frame page cache with clock (second-chance)
// eviction and a temp-file backing store. Storage layers register a
// space per storage object, then access pages through Get/Unpin with a
// pin discipline: a pinned frame is never evicted, an unpinned frame may
// be written back (encoded by its space's codec, one physical write) and
// its frame reused. A later access misses, pays one physical read plus
// decoding, and reinstalls the page — so cold and warm runs are
// genuinely different, which the split logical/physical counters in
// Stats expose. A miss reads into an image buffer from a free list of
// power-of-two size classes and the buffer goes back when its frame is
// released, so a steady stream of misses allocates no images.
//
// Fault composition: physical transfers are charged to the accountant,
// where the FaultPolicy applies (logical charges are bookkeeping only in
// pooled mode). A write-back fault
// panics with *FaultError before any pool state changes, so the victim
// stays resident and dirty and the pool remains consistent; the caller
// side recovers the panic at the usual operator boundaries.
//
// All methods are safe for concurrent use; the pool is shared by
// parallel scan workers, each pinning its own pages.
type BufferPool struct {
	acct *Accountant

	mu     sync.Mutex
	frames []frame
	table  map[pageKey]int
	hand   int
	codecs []PageCodec

	file      *os.File
	spans     map[pageKey]span
	freeSpans []span
	fileEnd   int64

	images  [maxImageClass + 1][][]byte // free image buffers by size class
	scratch []byte                      // the write-back image, reused

	resident    int
	maxResident int
	closed      bool
}

// NewBufferPool builds a pool with the given frame budget (raised to
// MinPoolFrames) and attaches it to acct, detaching and closing any pool
// previously attached there. The backing store is an unlinked temp file
// released on Close or process exit. Creation failure panics: it means
// the environment has no writable temp directory, which no caller can
// meaningfully handle.
func NewBufferPool(acct *Accountant, frames int) *BufferPool {
	if frames < MinPoolFrames {
		frames = MinPoolFrames
	}
	f, err := os.CreateTemp("", "pager-pool-*.pages")
	if err != nil {
		panic(fmt.Errorf("pager: buffer pool backing store: %w", err))
	}
	// Unlink immediately: the file lives until the descriptor closes, and
	// nothing ever needs its name again.
	os.Remove(f.Name())
	p := &BufferPool{
		acct:    acct,
		frames:  make([]frame, frames),
		table:   make(map[pageKey]int),
		file:    f,
		spans:   make(map[pageKey]span),
		scratch: make([]byte, pageImageHeader),
	}
	if old := acct.pool.Swap(p); old != nil {
		old.Close()
	}
	return p
}

// Close detaches the pool from its accountant and releases the backing
// store. Cached pages are discarded, not written back — the pool caches
// in-process objects, so close is only meaningful at teardown.
func (p *BufferPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	p.acct.pool.CompareAndSwap(p, nil)
	return p.file.Close()
}

// NewSpace registers a storage object's page namespace with its codec
// and returns the space id.
func (p *BufferPool) NewSpace(c PageCodec) int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.codecs = append(p.codecs, c)
	return int32(len(p.codecs) - 1)
}

// NewPage installs a freshly created page, pinned and dirty (it exists
// nowhere else yet). No physical transfer is charged: page birth is a
// logical write, charged by the storage layer as before.
func (p *BufferPool) NewPage(space int32, page int64, v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := pageKey{space, page}
	if _, ok := p.table[k]; ok {
		panic(fmt.Errorf("pager: NewPage of resident page %d in space %d", page, space))
	}
	i := p.freeFrame()
	p.install(i, k, v, nil, true)
}

// Get returns the page, pinned. A resident page is a cache hit and costs
// nothing; a miss evicts a victim if needed (one physical write if
// dirty), then pays one physical read plus deserialization. The caller
// must Unpin when done with the page object and must not retain the
// object across the Unpin if it intends to mutate it later.
func (p *BufferPool) Get(space int32, page int64) any {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := pageKey{space, page}
	if i, ok := p.table[k]; ok {
		f := &p.frames[i]
		f.pins++
		f.ref = true
		p.acct.cacheHits.Add(1)
		return f.val
	}
	p.acct.cacheMisses.Add(1)
	sp, ok := p.spans[k]
	if !ok {
		panic(fmt.Errorf("pager: read of unknown page %d in space %d", page, space))
	}
	return p.load(p.freeFrame(), k, sp)
}

// load charges one physical read (which may panic *FaultError before any
// state changes), reads k's image into a recycled buffer, decodes it and
// installs the page, clean and pinned once, in the free frame i together
// with the buffer, which the page may alias. Torn or corrupt images and
// images the codec rejects panic *CorruptPageError. The caller holds
// p.mu.
func (p *BufferPool) load(i int, k pageKey, sp span) any {
	p.acct.phys("read")
	buf := p.image(sp.len)
	if _, err := p.file.ReadAt(buf, sp.off); err != nil {
		panic(fmt.Errorf("pager: backing store read: %w", err))
	}
	payload, err := unframePageImage(buf, k)
	if err != nil {
		panic(err)
	}
	v, err := p.codecs[k.space].DecodePage(payload, k.space, k.page)
	if err != nil {
		panic(&CorruptPageError{Space: k.space, Page: k.page, Reason: err.Error()})
	}
	p.install(i, k, v, buf, false)
	return v
}

// maxImageClass bounds the recycled image buffers at 1 MiB; a larger
// image is allocated for its read and left to the collector.
const maxImageClass = 20

// image returns an n-byte buffer, recycled from n's power-of-two size
// class when one is free. The caller holds p.mu.
func (p *BufferPool) image(n int) []byte {
	c := bits.Len(uint(n - 1))
	if c > maxImageClass {
		return make([]byte, n)
	}
	if free := p.images[c]; len(free) > 0 {
		p.images[c] = free[:len(free)-1]
		return free[len(free)-1][:n]
	}
	return make([]byte, n, 1<<c)
}

// recycle returns an image buffer to its size class; each class keeps at
// most one buffer per frame. The caller holds p.mu.
func (p *BufferPool) recycle(buf []byte) {
	if c := bits.Len(uint(cap(buf) - 1)); cap(buf) == 1<<c && c <= maxImageClass && len(p.images[c]) < len(p.frames) {
		p.images[c] = append(p.images[c], buf)
	}
}

// install claims frame i for k, pinned once, holding the image buffer v
// was decoded from. A freshly created page is dirty (it exists nowhere
// else); a page read back from the backing store is clean until a caller
// unpins it dirty. The caller holds p.mu.
func (p *BufferPool) install(i int, k pageKey, v any, img []byte, dirty bool) {
	p.frames[i] = frame{key: k, val: v, img: img, pins: 1, dirty: dirty, ref: true, valid: true}
	if dirty {
		p.stampLSN(&p.frames[i])
	}
	p.table[k] = i
	p.resident++
	if p.resident > p.maxResident {
		p.maxResident = p.resident
	}
}

// stampLSN records on a dirtied frame the WAL's current appended LSN.
// The engine appends a record before applying its mutation, so at the
// moment a page is dirtied the log already holds every record whose
// effects the page can contain — the appended watermark is therefore a
// (conservative) upper bound usable as the page-LSN. The caller holds
// p.mu.
func (p *BufferPool) stampLSN(f *frame) {
	if lg := p.acct.PageLogger(); lg != nil {
		if v := lg.AppendedLSN(); v > f.lsn {
			f.lsn = v
		}
	}
}

// SetValue replaces the cached object of a resident page. The MVCC
// write path uses it to swap in a copy-on-write clone of a page whose
// previous version snapshot readers still hold: the caller pins the
// page, clones it, publishes the old object into its version chain, and
// installs the clone here before unpinning dirty. The old object may
// alias the frame's image buffer and outlives the frame, so the frame
// gives the buffer up to it instead of recycling it. The page must be
// resident (the caller's pin guarantees it).
func (p *BufferPool) SetValue(space int32, page int64, v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.table[pageKey{space, page}]
	if !ok {
		panic(fmt.Errorf("pager: SetValue of non-resident page %d in space %d", page, space))
	}
	p.frames[i].val, p.frames[i].img = v, nil
}

// Unpin releases one pin. dirty records that the caller mutated the
// page, so eviction must write it back.
func (p *BufferPool) Unpin(space int32, page int64, dirty bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.table[pageKey{space, page}]
	if !ok {
		panic(fmt.Errorf("pager: unpin of non-resident page %d in space %d", page, space))
	}
	f := &p.frames[i]
	if f.pins <= 0 {
		panic(fmt.Errorf("pager: unpin of unpinned page %d in space %d", page, space))
	}
	f.pins--
	if dirty {
		f.dirty = true
		p.stampLSN(f)
	}
	f.ref = true
}

// Drop discards a page that will never be read again (a freed B-Tree
// node): its frame is released without write-back and its backing extent
// recycled. The page must be unpinned.
func (p *BufferPool) Drop(space int32, page int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := pageKey{space, page}
	if i, ok := p.table[k]; ok {
		f := &p.frames[i]
		if f.pins > 0 {
			panic(fmt.Errorf("pager: drop of pinned page %d in space %d", page, space))
		}
		p.release(i)
	}
	p.freeSpan(k)
}

// DropSpace discards every page of a space (a storage object being
// thrown away, e.g. an index rebuilt at a wider key format). All of the
// space's pages must be unpinned.
func (p *BufferPool) DropSpace(space int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		f := &p.frames[i]
		if f.valid && f.key.space == space {
			if f.pins > 0 {
				panic(fmt.Errorf("pager: drop of pinned page %d in space %d", f.key.page, space))
			}
			p.release(i)
		}
	}
	for k := range p.spans {
		if k.space == space {
			p.freeSpan(k)
		}
	}
}

// EvictAll evicts every unpinned frame (writing back dirty ones) — the
// benchmark harness's "drop caches" switch for measuring cold runs.
func (p *BufferPool) EvictAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.frames {
		if p.frames[i].valid && p.frames[i].pins == 0 {
			p.evict(i)
		}
	}
}

// Prefetch reads the given pages of a space into unpinned frames ahead
// of demand, in order, and returns how many it installed. It is a pure
// hint with best-effort semantics: resident pages, pages with no backing
// extent (never evicted, or never written), and pages beyond the free
// frame supply are skipped — the last by stopping early rather than
// evicting clock victims, so a prefetch never forces out pages a caller
// still wants. Each installed page is charged as one physical read plus
// a Prefetched tick (no cache miss: the demand Get that follows is a
// hit), keeping PhysReads an honest count of backing-store transfers.
func (p *BufferPool) Prefetch(space int32, pages []int64) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	installed := 0
	for _, page := range pages {
		k := pageKey{space, page}
		if _, ok := p.table[k]; ok {
			continue
		}
		sp, ok := p.spans[k]
		if !ok {
			continue
		}
		i := p.tryFreeFrame()
		if i < 0 {
			break
		}
		p.load(i, k, sp)
		p.acct.prefetched.Add(1)
		p.frames[i].pins = 0 // installed warm, not claimed
		installed++
	}
	return installed
}

// Frames returns the configured frame budget, which the optimizer's
// fetch-path decision compares against the distinct pages an index scan
// will touch.
func (p *BufferPool) Frames() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// Stats snapshots frame occupancy.
func (p *BufferPool) Stats() BufferPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return BufferPoolStats{
		Frames:      len(p.frames),
		Resident:    p.resident,
		MaxResident: p.maxResident,
		Spaces:      len(p.codecs),
	}
}

// freeFrame returns the index of an empty frame, evicting a victim by
// the clock (second-chance) policy if none is free. Two full sweeps
// finding only pinned frames means the budget is exhausted — a panic the
// executor surfaces as a query error, since no progress is possible
// without unpinning. The caller holds p.mu.
func (p *BufferPool) freeFrame() int {
	if i := p.tryFreeFrame(); i >= 0 {
		return i
	}
	panic(fmt.Errorf("pager: buffer pool exhausted: all %d frames pinned", len(p.frames)))
}

// tryFreeFrame is freeFrame's non-panicking core: sweep the frames, skip
// pinned ones, give referenced ones a second chance by clearing their
// bit, evict the first unreferenced unpinned frame. Returns -1 when
// every frame is pinned. The caller holds p.mu.
func (p *BufferPool) tryFreeFrame() int {
	for sweep := 0; sweep <= 2*len(p.frames); sweep++ {
		i := p.hand
		p.hand = (p.hand + 1) % len(p.frames)
		f := &p.frames[i]
		if !f.valid {
			return i
		}
		if f.pins > 0 {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		p.evict(i)
		return i
	}
	return -1
}

// evict writes frame i back if dirty and releases it. The write-back is
// ordered so that an injected fault leaves the pool consistent: force
// the WAL through the page-LSN (the write-ahead rule — may block on an
// fsync, may fail), encode into the scratch image (pure), charge the
// physical write (may panic — nothing has changed yet, the victim stays
// resident and dirty), then update the backing store and release the
// frame. The caller holds p.mu.
func (p *BufferPool) evict(i int) {
	f := &p.frames[i]
	if f.dirty {
		if lg := p.acct.PageLogger(); lg != nil && f.lsn > 0 {
			if err := lg.Flush(f.lsn); err != nil {
				panic(fmt.Errorf("pager: wal flush before write-back of page %d in space %d: %w", f.key.page, f.key.space, err))
			}
		}
		img, err := p.codecs[f.key.space].AppendPage(p.scratch[:pageImageHeader], f.val)
		if err != nil {
			panic(fmt.Errorf("pager: page encode: %w", err))
		}
		p.scratch = img
		sealPageImage(img)
		p.acct.phys("write") // may panic *FaultError before any state changes
		p.writeSpan(f.key, img)
	}
	p.acct.evictions.Add(1)
	p.release(i)
}

// release clears frame i without write-back and recycles its image
// buffer; the caller holds p.mu.
func (p *BufferPool) release(i int) {
	if img := p.frames[i].img; img != nil {
		p.recycle(img)
	}
	delete(p.table, p.frames[i].key)
	p.frames[i] = frame{}
	p.resident--
}

// writeSpan stores a sealed page image, reusing the existing extent when
// it still fits, else a recycled extent, else fresh space at the file
// end. A short write — the torn-page case a real device can produce — is
// surfaced immediately rather than left for the read side, which would
// still catch it by checksum. The caller holds p.mu.
func (p *BufferPool) writeSpan(k pageKey, framed []byte) {
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
