// Package heap implements slotted-page heap files, the base storage of
// every relation: user tables, the de-normalized R_SummaryStorage side
// tables, and the raw-annotation store. Records are addressed by RID
// (page, slot); page accesses are charged to a pager.Accountant so that
// access-path costs are observable.
//
// Pages live in a pager.Store, which decides where a page is kept
// (resident, or in buffer-pool frames) and which version of it a reader
// sees. Every access pins its page for the duration of the touch
// (cursors keep their current page pinned between Next calls and release
// it on advance or Close) and mutations unpin dirty. Only logical I/O is
// charged here, at the same call sites wherever the pages live. AsOf
// freezes the file's shape into a read-only view whose reads resolve
// every page to the version visible at the view's epoch, without taking
// the writer's lock.
package heap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cell"
	"repro/internal/pager"
)

// RID is a record's physical address: the heap location returned by the
// engine-internal diskTupleLoc() function and stored in Summary-BTree
// backward pointers.
type RID struct {
	Page int32
	Slot int32
}

// Encode packs the RID into an int64 for storage as an index payload.
func (r RID) Encode() int64 { return int64(r.Page)<<32 | int64(uint32(r.Slot)) }

// DecodeRID unpacks an int64 produced by Encode.
func DecodeRID(v int64) RID {
	return RID{Page: int32(v >> 32), Slot: int32(uint32(v))}
}

// String renders "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// record is one slot: the record's OID, its payload, and a liveness flag.
type record[T any] struct {
	oid  int64
	val  T
	live bool
}

// page is one slotted page. stamp is the epoch of the mutation that
// produced this version of the page. A page read back from a buffer pool
// is raw: it keeps its image instead of slots and decodes a cell only when
// a reader touches it; the writer decodes it whole before mutating it.
// Resident pages are never raw.
type page[T any] struct {
	slots []record[T]
	nLive int
	stamp uint64

	raw   []byte                  // the image (see pageCodec), while raw
	dec   func([]byte) (T, error) // the file's cell decoder, while raw
	space int32                   // where the image was read from
	id    int64
}

func (p *page[T]) Stamp() uint64 { return p.stamp }

// CloneAt copies the page for copy-on-write; a raw page decodes into the
// clone and itself stays raw.
func (p *page[T]) CloneAt(st uint64) *page[T] {
	return &page[T]{slots: p.copySlots(), nLive: p.nLive, stamp: st}
}

// copySlots returns a fresh copy of the slots, decoding every cell of a
// raw page.
func (p *page[T]) copySlots() []record[T] {
	if p.raw == nil {
		return append([]record[T](nil), p.slots...)
	}
	slots := make([]record[T], p.count())
	for i := range slots {
		slots[i].oid, slots[i].val, slots[i].live = p.cell(i)
	}
	return slots
}

// count returns the page's slot count.
func (p *page[T]) count() int {
	if p.raw != nil {
		return int(binary.LittleEndian.Uint32(p.raw[8:]))
	}
	return len(p.slots)
}

// cell returns slot i, decoding a raw page's cell from its image. A cell
// that does not decode panics with *pager.CorruptPageError.
func (p *page[T]) cell(i int) (oid int64, val T, live bool) {
	if p.raw == nil {
		r := &p.slots[i]
		return r.oid, r.val, r.live
	}
	e := pageHeader + i*dirEntry
	oid, end := int64(binary.LittleEndian.Uint64(p.raw[e:])), binary.LittleEndian.Uint32(p.raw[e+8:])
	if end&1 == 0 {
		return oid, val, false
	}
	start, base := uint32(0), pageHeader+p.count()*dirEntry
	if i > 0 {
		start = binary.LittleEndian.Uint32(p.raw[e-4:]) >> 1
	}
	val, err := p.dec(p.raw[base+int(start) : base+int(end>>1)])
	if err != nil {
		panic(&pager.CorruptPageError{Space: p.space, Page: p.id, Reason: fmt.Sprintf("slot %d: %v", i, err)})
	}
	return oid, val, true
}

// A page image is a header — the stamp (8 bytes) and the slot count (4)
// — then a directory of one entry per slot — the OID (8) and a word (4)
// holding the end of the slot's cell within the cell area shifted left
// once above a liveness bit — then the cells, contiguous in slot order.
// A dead slot has OID 0 and an empty cell. All integers little-endian.
const pageHeader, dirEntry = 12, 12

// pageCodec is a file's pager.PageCodec. A decoded page is raw: decoding
// checks the header and that the directory lays every cell inside the
// image (a malformed image is a *cell.Error), and leaves the cells to the
// readers that touch them.
type pageCodec[T any] struct{ cells cell.Codec[T] }

func (c pageCodec[T]) AppendPage(dst []byte, v any) ([]byte, error) {
	p := v.(*page[T])
	if p.raw != nil {
		return append(dst, p.raw...), nil
	}
	dst = binary.LittleEndian.AppendUint64(dst, p.stamp)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.slots)))
	dir := len(dst)
	dst = append(dst, make([]byte, dirEntry*len(p.slots))...)
	base := len(dst)
	for i, rec := range p.slots {
		word := uint32(0)
		if rec.live {
			dst, word = c.cells.Append(dst, rec.val), 1
		}
		binary.LittleEndian.PutUint64(dst[dir+i*dirEntry:], uint64(rec.oid))
		binary.LittleEndian.PutUint32(dst[dir+i*dirEntry+8:], word|uint32(len(dst)-base)<<1)
	}
	return dst, nil
}

func (c pageCodec[T]) DecodePage(data []byte, space int32, id int64) (any, error) {
	if len(data) < pageHeader {
		return nil, &cell.Error{Reason: "image shorter than its header"}
	}
	p := &page[T]{stamp: binary.LittleEndian.Uint64(data), raw: data, dec: c.cells.Decode, space: space, id: id}
	base, end := pageHeader+p.count()*dirEntry, 0
	if base > len(data) {
		return nil, &cell.Error{Off: 8, Reason: "slot directory overruns the image"}
	}
	for e := pageHeader; e < base; e += dirEntry {
		w := binary.LittleEndian.Uint32(data[e+8:])
		next := int(w >> 1)
		if next < end || base+next > len(data) {
			return nil, &cell.Error{Off: e + 8, Reason: "cell extent outside the image"}
		}
		if w&1 == 0 && (next != end || binary.LittleEndian.Uint64(data[e:]) != 0) {
			return nil, &cell.Error{Off: e, Reason: "dead slot with a cell or an OID"}
		}
		end, p.nLive = next, p.nLive+int(w&1)
	}
	if base+end != len(data) {
		return nil, &cell.Error{Off: base + end, Reason: "bytes after the last cell"}
	}
	return p, nil
}

// File is a heap file of records of type T. Records are identified
// logically by OID (assigned by the caller) and physically by RID. The
// zero File is not usable; construct with NewFile. File is not safe for
// concurrent mutation; any number of AsOf views may read concurrently
// with the (single) mutator.
type File[T any] struct {
	acct    *pager.Accountant
	pageCap int
	store   *pager.Store[*page[T]]

	// snap is the epoch reads resolve pages at: pager.Latest on the file
	// itself, the frozen epoch on an AsOf view.
	snap uint64

	// used tracks each page's slot count so capacity checks never touch
	// a page; its length is the page count. A view keeps the slice header
	// it was taken with — its frozen page count — and never reads the
	// elements: it bounds slots by the resolved version's own length.
	used  []int32
	nLive int

	// freePages lists pages with spare capacity: a page is re-offered
	// after a delete trims tombstoned slots from its tail, and popped
	// once it fills back up. freeSet dedups offers.
	freePages []int32
	freeSet   map[int32]bool
}

// NewFile builds a heap file whose pages hold pageCap records each
// (the paper's "disk page size in records" parameter B), stored under
// acct's epoch clock and in its buffer pool when it has one, where codec
// turns its records into cells.
func NewFile[T any](acct *pager.Accountant, pageCap int, codec cell.Codec[T]) *File[T] {
	if pageCap <= 0 {
		pageCap = 64
	}
	return &File[T]{
		acct:    acct,
		pageCap: pageCap,
		store:   pager.NewStore[*page[T]](acct, pageCodec[T]{codec}),
		snap:    pager.Latest,
	}
}

// AsOf returns a read-only view of the file frozen at epoch snap. It
// must be taken while the file's current state IS the state at snap (the
// engine takes views at epoch publication, under the writer lock); the
// view then keeps that page and record count and resolves every page to
// the version visible at snap, without any lock against later mutations,
// for as long as the caller holds a clock pin on snap.
func (f *File[T]) AsOf(snap uint64) *File[T] {
	g := *f
	g.snap = snap
	return &g
}

// Insert appends a record and returns its RID. The page written is
// charged as one page write.
func (f *File[T]) Insert(oid int64, val T) RID {
	pid, fresh := f.pageWithSpace()
	var p *page[T]
	if fresh {
		p = &page[T]{stamp: f.store.Stamp()}
		f.store.New(int64(pid), p)
	} else {
		p = f.writable(pid)
	}
	p.slots = append(p.slots, record[T]{oid: oid, val: val, live: true})
	p.nLive++
	n := int32(len(p.slots))
	f.used[pid] = n
	f.store.Unpin(int64(pid), true)
	f.nLive++
	f.acct.Write(1)
	return RID{Page: pid, Slot: n - 1}
}

// pageWithSpace picks the page the next insert lands on: a re-offered
// page with spare capacity, then the last page, then a fresh page
// (fresh=true means the caller must create it).
func (f *File[T]) pageWithSpace() (pid int32, fresh bool) {
	for len(f.freePages) > 0 {
		pid := f.freePages[len(f.freePages)-1]
		if int(f.used[pid]) < f.pageCap {
			return pid, false
		}
		f.freePages = f.freePages[:len(f.freePages)-1]
		delete(f.freeSet, pid)
	}
	if n := len(f.used); n > 0 && int(f.used[n-1]) < f.pageCap {
		return int32(n - 1), false
	}
	f.used = append(f.used, 0)
	return int32(len(f.used) - 1), true
}

// Get reads the record at rid, charging one page read. A RID outside
// the file or past its page's last slot is charged nothing.
func (f *File[T]) Get(rid RID) (oid int64, val T, ok bool) {
	if rid.Page < 0 || int(rid.Page) >= len(f.used) || rid.Slot < 0 {
		return
	}
	r := f.store.Reader(f.snap)
	defer r.Release()
	p := r.Page(int64(rid.Page))
	if int(rid.Slot) < p.count() {
		f.acct.Read(1)
		oid, val, ok = p.cell(int(rid.Slot))
	}
	return
}

// writable returns page pid pinned for mutation, decoded. A raw page the
// in-progress epoch produced is decoded in place: no reader resolves a
// version newer than its snapshot, so none can be reading its cells. An
// older raw page was cloned, decoded, by the store.
func (f *File[T]) writable(pid int32) *page[T] {
	p := f.store.Writable(int64(pid))
	if p.raw != nil {
		p.slots, p.raw = p.copySlots(), nil
	}
	return p
}

// writableSlot returns rid's page pinned for mutation when rid addresses
// a live record; otherwise nothing is pinned and ok is false.
func (f *File[T]) writableSlot(rid RID) (p *page[T], ok bool) {
	if rid.Page < 0 || int(rid.Page) >= len(f.used) || rid.Slot < 0 || rid.Slot >= f.used[rid.Page] {
		return nil, false
	}
	p = f.writable(rid.Page)
	if !p.slots[rid.Slot].live {
		f.store.Unpin(int64(rid.Page), false)
		return nil, false
	}
	return p, true
}

// Update replaces the record at rid in place, charging one page read and
// one page write.
func (f *File[T]) Update(rid RID, val T) bool {
	p, ok := f.writableSlot(rid)
	if !ok {
		return false
	}
	f.acct.Read(1)
	f.acct.Write(1)
	p.slots[rid.Slot].val = val
	f.store.Unpin(int64(rid.Page), true)
	return true
}

// Delete tombstones the record at rid, charging one page read and write.
// Live RIDs stay stable, but tombstoned slots at the page's tail are
// trimmed so later inserts can reuse them, and the page is re-offered to
// the free list when it has spare capacity — under insert/delete churn
// the file's page count stays bounded instead of growing monotonically.
func (f *File[T]) Delete(rid RID) bool {
	p, ok := f.writableSlot(rid)
	if !ok {
		return false
	}
	f.acct.Read(1)
	f.acct.Write(1)
	f.tombstone(p, rid.Slot)
	f.used[rid.Page] = int32(len(p.slots))
	f.store.Unpin(int64(rid.Page), true)
	f.offerFree(rid.Page)
	return true
}

// tombstone kills one slot and trims any dead run off the page's tail so
// those slot numbers become reusable.
func (f *File[T]) tombstone(p *page[T], slot int32) {
	p.slots[slot] = record[T]{}
	p.nLive--
	f.nLive--
	n := len(p.slots)
	for n > 0 && !p.slots[n-1].live {
		n--
	}
	for i := n; i < len(p.slots); i++ {
		p.slots[i] = record[T]{}
	}
	p.slots = p.slots[:n]
}

// offerFree re-offers pid to the insert path when it has spare capacity
// and is not already on the free list.
func (f *File[T]) offerFree(pid int32) {
	if int(f.used[pid]) >= f.pageCap || f.freeSet[pid] {
		return
	}
	if f.freeSet == nil {
		f.freeSet = make(map[int32]bool)
	}
	f.freeSet[pid] = true
	f.freePages = append(f.freePages, pid)
}

// Scan iterates all live records in physical order, charging one page
// read per visited page, each page pinned while its slots are visited.
// Iteration stops early when fn returns false.
func (f *File[T]) Scan(fn func(rid RID, oid int64, val T) bool) {
	r := f.store.Reader(f.snap)
	defer r.Release()
	for pi := range f.used {
		f.acct.Read(1)
		p := r.Page(int64(pi))
		for si := 0; si < p.count(); si++ {
			if oid, val, live := p.cell(si); live && !fn(RID{Page: int32(pi), Slot: int32(si)}, oid, val) {
				return
			}
		}
		r.Release()
	}
}

// FetchMany visits the records at the given RIDs, grouping consecutive
// same-page RIDs so each group costs one page read and one frame pin —
// the batched (bitmap-style) dereference path for index scans. Callers
// wanting minimal I/O sort the RIDs into page order first; FetchMany
// itself preserves the given order, so it also serves order-preserving
// fetches (each page run then has length 1 and the cost matches per-RID
// Get exactly). Out-of-range and tombstoned RIDs are skipped without
// calling fn; returning false from fn stops the fetch. The number of
// page reads charged (= pages pinned) is returned.
func (f *File[T]) FetchMany(rids []RID, fn func(rid RID, oid int64, val T) bool) int {
	reads := 0
	r := f.store.Reader(f.snap)
	defer r.Release()
	for i := 0; i < len(rids); {
		pid := rids[i].Page
		j := i
		for j < len(rids) && rids[j].Page == pid {
			j++
		}
		if pid < 0 || int(pid) >= len(f.used) {
			i = j
			continue
		}
		f.acct.Read(1)
		reads++
		p := r.Page(int64(pid))
		for _, rid := range rids[i:j] {
			if rid.Slot < 0 || int(rid.Slot) >= p.count() {
				continue
			}
			if oid, val, live := p.cell(int(rid.Slot)); live && !fn(rid, oid, val) {
				return reads
			}
		}
		r.Release()
		i = j
	}
	return reads
}

// Prefetch hints that the given pages are about to be fetched in page
// order. No logical reads are charged (the fetch itself charges them on
// arrival).
func (f *File[T]) Prefetch(pids []int32) {
	var buf [8]int64 // a hint names a handful of pages; keeps them off the heap
	pages := buf[:0]
	for _, pid := range pids {
		if pid >= 0 && int(pid) < len(f.used) {
			pages = append(pages, int64(pid))
		}
	}
	f.store.Prefetch(pages)
}

// Release frees the file's pages once no pinned epoch can still resolve
// them through a snapshot view. The file must not be used afterwards.
func (f *File[T]) Release() { f.store.Release() }

// Cursor is a pull-style iterator over a file's live records, charging
// one page read per visited page. Mutating the file invalidates open
// cursors (snapshot views from AsOf are immune: their cursors resolve
// page versions frozen at the view's epoch). Reads are pure, so any
// number of cursors may run concurrently as long as the file is not
// mutated — each cursor pins its current page independently, so callers
// must Close cursors they abandon before exhaustion.
type Cursor[T any] struct {
	f    *File[T]
	r    pager.Reader[*page[T]]
	page int
	end  int // exclusive page bound
	slot int
	cur  *page[T] // page being visited, pinned by r; nil until it is read
}

// Cursor returns a cursor positioned before the first record.
func (f *File[T]) Cursor() *Cursor[T] { return f.RangeCursor(0, len(f.used)) }

// RangeCursor returns a cursor over the half-open page range
// [startPage, endPage), clamped to the file. Consecutive ranges
// produced by splitting [0, Pages()) partition the file: every live
// record is visited by exactly one cursor, in the same global order a
// full Cursor would use — the basis of the executor's parallel scan.
func (f *File[T]) RangeCursor(startPage, endPage int) *Cursor[T] {
	if startPage < 0 {
		startPage = 0
	}
	if endPage > len(f.used) {
		endPage = len(f.used)
	}
	return &Cursor[T]{f: f, r: f.store.Reader(f.snap), page: startPage, end: endPage}
}

// Next advances to the next live record, returning ok=false at the end.
func (c *Cursor[T]) Next() (rid RID, oid int64, val T, ok bool) {
	for c.page < c.end {
		if c.cur == nil {
			c.f.acct.Read(1)
			c.cur = c.r.Page(int64(c.page))
		}
		for c.slot < c.cur.count() {
			c.slot++
			if oid, val, live := c.cur.cell(c.slot - 1); live {
				return RID{Page: int32(c.page), Slot: int32(c.slot - 1)}, oid, val, true
			}
		}
		c.Close()
		c.page++
		c.slot = 0
	}
	var zero T
	return RID{}, 0, zero, false
}

// Close releases the cursor's pinned page, if any. It is safe to call
// repeatedly and on exhausted cursors; exhausted cursors release their
// last page automatically.
func (c *Cursor[T]) Close() {
	c.r.Release()
	c.cur = nil
}

// Len returns the number of live records.
func (f *File[T]) Len() int { return f.nLive }

// Pages returns the number of allocated pages.
func (f *File[T]) Pages() int { return len(f.used) }

// PageCap returns the per-page record capacity (B).
func (f *File[T]) PageCap() int { return f.pageCap }

// Accountant exposes the file's I/O accountant (shared with its indexes).
func (f *File[T]) Accountant() *pager.Accountant { return f.acct }
