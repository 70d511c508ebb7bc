package heap

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/pager"
)

// intCodec and stringCodec carry the tests' payloads through the same
// cell path the engine's records take behind a pool: raw pages, cells
// decoded on touch, recycled images.
var (
	intCodec = cell.Codec[int]{
		Append: func(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) },
		Decode: func(b []byte) (int, error) {
			return cell.Decode(b, func(r *cell.Reader) int { return int(r.Varint()) })
		},
	}
	stringCodec = cell.Codec[string]{
		Append: cell.AppendString,
		Decode: func(b []byte) (string, error) { return cell.Decode(b, (*cell.Reader).Text) },
	}
)

func TestRIDEncodeRoundTrip(t *testing.T) {
	f := func(page, slot int32) bool {
		r := RID{Page: page, Slot: slot}
		return DecodeRID(r.Encode()) == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	if (RID{Page: 3, Slot: 7}).String() != "3:7" {
		t.Error("RID.String")
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	var acct pager.Accountant
	f := NewFile(&acct, 4, stringCodec)
	rid := f.Insert(100, "hello")
	if oid, v, ok := f.Get(rid); !ok || oid != 100 || v != "hello" {
		t.Fatalf("Get = %d %q %v", oid, v, ok)
	}
	if !f.Update(rid, "world") {
		t.Fatal("Update failed")
	}
	if _, v, _ := f.Get(rid); v != "world" {
		t.Errorf("after Update: %q", v)
	}
	if !f.Delete(rid) {
		t.Fatal("Delete failed")
	}
	if _, _, ok := f.Get(rid); ok {
		t.Error("Get after Delete should fail")
	}
	if f.Delete(rid) {
		t.Error("double Delete should fail")
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	f := NewFile(nil, 4, intCodec)
	if _, _, ok := f.Get(RID{Page: 5, Slot: 0}); ok {
		t.Error("Get beyond pages should fail")
	}
	if f.Update(RID{Page: 0, Slot: 0}, 1) {
		t.Error("Update on empty file should fail")
	}
	if f.Delete(RID{Page: -1, Slot: 0}) {
		t.Error("Delete with negative page should fail")
	}
	rid := f.Insert(1, 42)
	if _, _, ok := f.Get(RID{Page: rid.Page, Slot: 99}); ok {
		t.Error("Get with bad slot should fail")
	}
}

func TestPagingAndScan(t *testing.T) {
	var acct pager.Accountant
	f := NewFile(&acct, 10, intCodec)
	for i := 0; i < 95; i++ {
		f.Insert(int64(i), i*i)
	}
	if f.Pages() != 10 {
		t.Errorf("Pages = %d, want 10", f.Pages())
	}
	if f.PageCap() != 10 {
		t.Errorf("PageCap = %d", f.PageCap())
	}
	acct.Reset()
	var got []int64
	f.Scan(func(rid RID, oid int64, v int) bool {
		got = append(got, oid)
		return true
	})
	if len(got) != 95 {
		t.Fatalf("Scan visited %d", len(got))
	}
	// Full scan charges exactly one read per page.
	if s := acct.Stats(); s.PageReads != 10 {
		t.Errorf("scan reads = %d, want 10", s.PageReads)
	}
	// Early termination.
	n := 0
	f.Scan(func(RID, int64, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early-stop scan visited %d", n)
	}
}

func TestIOAccounting(t *testing.T) {
	var acct pager.Accountant
	f := NewFile(&acct, 8, intCodec)
	base := acct.Stats()
	rid := f.Insert(1, 10)
	if d := acct.Stats().Sub(base); d.PageWrites != 1 || d.PageReads != 0 {
		t.Errorf("Insert cost: %+v", d)
	}
	base = acct.Stats()
	f.Get(rid)
	if d := acct.Stats().Sub(base); d.PageReads != 1 {
		t.Errorf("Get cost: %+v", d)
	}
	base = acct.Stats()
	f.Update(rid, 11)
	if d := acct.Stats().Sub(base); d.PageReads != 1 || d.PageWrites != 1 {
		t.Errorf("Update cost: %+v", d)
	}
}

func TestDefaultPageCap(t *testing.T) {
	f := NewFile(nil, 0, intCodec)
	if f.PageCap() != 64 {
		t.Errorf("default PageCap = %d", f.PageCap())
	}
	if f.Accountant() != nil {
		t.Error("nil accountant should be preserved")
	}
}

func TestCursorIteratesLiveRecords(t *testing.T) {
	var acct pager.Accountant
	f := NewFile(&acct, 4, intCodec)
	var rids []RID
	for i := 0; i < 18; i++ {
		rids = append(rids, f.Insert(int64(i), i*10))
	}
	// Delete a few, including a whole middle page (records 4..7).
	for _, i := range []int{4, 5, 6, 7, 17} {
		f.Delete(rids[i])
	}
	acct.Reset()
	cur := f.Cursor()
	var got []int64
	for {
		_, oid, v, ok := cur.Next()
		if !ok {
			break
		}
		if v != int(oid)*10 {
			t.Fatalf("oid %d carries %d", oid, v)
		}
		got = append(got, oid)
	}
	if len(got) != 13 {
		t.Fatalf("cursor visited %d records", len(got))
	}
	for _, oid := range got {
		if oid >= 4 && oid <= 7 || oid == 17 {
			t.Fatalf("deleted record %d visited", oid)
		}
	}
	// One page read per visited page (5 pages allocated).
	if r := acct.Stats().PageReads; r != int64(f.Pages()) {
		t.Errorf("cursor reads = %d, pages = %d", r, f.Pages())
	}
	// Exhausted cursor stays exhausted.
	if _, _, _, ok := cur.Next(); ok {
		t.Error("cursor resurrected")
	}
	// Cursor on an empty file.
	empty := NewFile(nil, 4, intCodec)
	if _, _, _, ok := empty.Cursor().Next(); ok {
		t.Error("empty cursor returned a record")
	}
}

// Property: against a reference map, random insert/update/delete
// sequences keep Get and Scan consistent.
func TestFileMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var acct pager.Accountant
	f := NewFile(&acct, 7, intCodec)
	ref := map[int64]int{}  // oid -> value
	rids := map[int64]RID{} // oid -> rid
	nextOID := int64(1)

	for step := 0; step < 3000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // insert
			oid := nextOID
			nextOID++
			v := rng.Intn(1000)
			rids[oid] = f.Insert(oid, v)
			ref[oid] = v
		case 2: // update
			for oid := range ref {
				v := rng.Intn(1000)
				if !f.Update(rids[oid], v) {
					t.Fatalf("step %d: update %d failed", step, oid)
				}
				ref[oid] = v
				break
			}
		case 3: // delete
			for oid := range ref {
				if !f.Delete(rids[oid]) {
					t.Fatalf("step %d: delete %d failed", step, oid)
				}
				delete(ref, oid)
				delete(rids, oid)
				break
			}
		}
	}
	if f.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", f.Len(), len(ref))
	}
	for oid, want := range ref {
		gotOID, got, ok := f.Get(rids[oid])
		if !ok || gotOID != oid || got != want {
			t.Fatalf("Get(%d) = %d,%d,%v want %d", oid, gotOID, got, ok, want)
		}
	}
	seen := map[int64]int{}
	f.Scan(func(rid RID, oid int64, v int) bool {
		seen[oid] = v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Scan found %d, want %d", len(seen), len(ref))
	}
	for oid, v := range ref {
		if seen[oid] != v {
			t.Fatalf("Scan mismatch for %d: %d != %d", oid, seen[oid], v)
		}
	}
}

// TestPagesBoundedUnderChurn is the free-list regression test: before
// Delete re-offered pages and trimmed tombstoned tail slots, every
// insert/delete cycle leaked its pages and the file grew monotonically.
func TestPagesBoundedUnderChurn(t *testing.T) {
	var acct pager.Accountant
	f := NewFile(&acct, 8, intCodec)
	const perCycle = 100
	for cycle := 0; cycle < 50; cycle++ {
		var rids []RID
		for i := 0; i < perCycle; i++ {
			rids = append(rids, f.Insert(int64(cycle*perCycle+i), i))
		}
		for _, rid := range rids {
			if !f.Delete(rid) {
				t.Fatalf("cycle %d: delete %v failed", cycle, rid)
			}
		}
	}
	// 100 records at 8/page is 13 pages; without space reuse the file
	// would hold 50x that.
	if f.Pages() > 2*((perCycle+7)/8) {
		t.Fatalf("Pages = %d after churn, want bounded near %d", f.Pages(), (perCycle+7)/8)
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", f.Len())
	}
	// Interleaved churn: keep a live working set while half the
	// inserts are deleted again.
	live := map[int64]RID{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		oid := int64(1_000_000 + i)
		live[oid] = f.Insert(oid, i)
		if len(live) > 50 {
			for victim, rid := range live {
				if rng.Intn(2) == 0 {
					f.Delete(rid)
					delete(live, victim)
				}
			}
		}
	}
	if f.Pages() > 40 {
		t.Fatalf("Pages = %d with a ~50-record working set at 8/page", f.Pages())
	}
}

// TestPooledFileMatchesUnpooled drives the same operation sequence
// through a buffer-pooled file (at a frame budget far below the page
// count, forcing eviction round trips) and a plain one, asserting
// identical contents, identical RID assignment, and identical logical
// I/O counters — the identity-when-disabled invariant from the other
// side.
func TestPooledFileMatchesUnpooled(t *testing.T) {
	var plainAcct pager.Accountant
	plain := NewFile(&plainAcct, 5, stringCodec)

	var poolAcct pager.Accountant
	pool := pager.NewBufferPool(&poolAcct, pager.MinPoolFrames)
	defer pool.Close()
	pooled := NewFile(&poolAcct, 5, stringCodec)

	rng := rand.New(rand.NewSource(99))
	var rids []RID
	val := func(oid int64) string { return fmt.Sprintf("v%d", oid) }
	for step := 0; step < 4000; step++ {
		switch {
		case len(rids) == 0 || rng.Intn(10) < 5: // insert
			oid := int64(step)
			r1 := plain.Insert(oid, val(oid))
			r2 := pooled.Insert(oid, val(oid))
			if r1 != r2 {
				t.Fatalf("step %d: RID divergence %v vs %v", step, r1, r2)
			}
			rids = append(rids, r1)
		case rng.Intn(10) < 7: // update
			rid := rids[rng.Intn(len(rids))]
			v := fmt.Sprintf("u%d", step)
			if plain.Update(rid, v) != pooled.Update(rid, v) {
				t.Fatalf("step %d: Update divergence at %v", step, rid)
			}
		default: // delete
			i := rng.Intn(len(rids))
			rid := rids[i]
			if plain.Delete(rid) != pooled.Delete(rid) {
				t.Fatalf("step %d: Delete divergence at %v", step, rid)
			}
			rids = append(rids[:i], rids[i+1:]...)
		}
	}
	if plain.Len() != pooled.Len() || plain.Pages() != pooled.Pages() {
		t.Fatalf("shape divergence: len %d/%d pages %d/%d",
			plain.Len(), pooled.Len(), plain.Pages(), pooled.Pages())
	}
	type rec struct {
		rid RID
		oid int64
		v   string
	}
	collect := func(f *File[string]) []rec {
		var out []rec
		f.Scan(func(rid RID, oid int64, v string) bool {
			out = append(out, rec{rid, oid, v})
			return true
		})
		return out
	}
	a, b := collect(plain), collect(pooled)
	if len(a) != len(b) {
		t.Fatalf("scan lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Logical I/O must be identical; the pooled run must additionally
	// have paid real physical traffic at this frame budget.
	ps, bs := plainAcct.Stats(), poolAcct.Stats()
	if ps.PageReads != bs.PageReads || ps.PageWrites != bs.PageWrites {
		t.Fatalf("logical counters diverge: plain %+v pooled %+v", ps, bs)
	}
	if pooled.Pages() > pager.MinPoolFrames && (bs.Evictions == 0 || bs.PhysReads == 0) {
		t.Fatalf("expected eviction churn at %d pages in %d frames: %+v",
			pooled.Pages(), pager.MinPoolFrames, bs)
	}
	if ps.CacheAccesses() != 0 {
		t.Fatalf("plain file generated cache traffic: %+v", ps)
	}
}

// TestCursorCloseUnpinsMidPage verifies an abandoned pooled cursor
// releases its pin so the page stays evictable.
func TestCursorCloseUnpinsMidPage(t *testing.T) {
	var acct pager.Accountant
	pool := pager.NewBufferPool(&acct, pager.MinPoolFrames)
	defer pool.Close()
	f := NewFile(&acct, 4, intCodec)
	for i := 0; i < 4*4; i++ {
		f.Insert(int64(i), i)
	}
	cur := f.Cursor()
	if _, _, _, ok := cur.Next(); !ok {
		t.Fatal("cursor empty")
	}
	cur.Close()
	cur.Close() // idempotent
	// With the pin released, churning more pages than frames through the
	// pool must not panic on exhaustion.
	for i := 0; i < 3*pager.MinPoolFrames; i++ {
		f.Insert(int64(100+i), i)
	}
	if st := pool.Stats(); st.MaxResident > st.Frames {
		t.Fatalf("residency exceeded budget: %+v", st)
	}
}

// TestFetchManyGroupsByPage checks the batched dereference: consecutive
// same-page RIDs share one logical read, dead and out-of-range entries
// are skipped silently, and the returned count is the pages pinned.
func TestFetchManyGroupsByPage(t *testing.T) {
	var acct pager.Accountant
	f := NewFile(&acct, 4, intCodec)
	var rids []RID
	for i := 0; i < 20; i++ {
		rids = append(rids, f.Insert(int64(i), i*10))
	}
	f.Delete(rids[5])

	req := []RID{
		rids[0], rids[2], // page 0, one read
		rids[5],                      // page 1, dead — read but not visited
		rids[9], {Page: 2, Slot: 99}, // page 2 run with a bad slot
		{Page: 99, Slot: 0}, // beyond the file: skipped, no read
		{Page: -1, Slot: 0}, // negative page: skipped, no read
		rids[17],            // page 4
	}
	before := acct.Stats()
	var got []int
	reads := f.FetchMany(req, func(_ RID, oid int64, v int) bool {
		got = append(got, v)
		return true
	})
	if reads != 4 {
		t.Errorf("reads = %d, want 4 (pages 0,1,2,4)", reads)
	}
	if d := acct.Stats().Sub(before); d.PageReads != int64(reads) {
		t.Errorf("accounted %d logical reads, FetchMany reported %d", d.PageReads, reads)
	}
	want := []int{0, 20, 90, 170}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}

	// fn returning false stops after the current page run.
	n := 0
	reads = f.FetchMany([]RID{rids[0], rids[8], rids[16]}, func(RID, int64, int) bool {
		n++
		return false
	})
	if n != 1 || reads != 1 {
		t.Errorf("early stop visited %d rows over %d reads, want 1/1", n, reads)
	}
}

// TestViewUnaffectedByLaterMutations is the mutate-while-view-open
// differential: views taken at successive epochs are checked against a
// copy of the file's contents made when each was taken, after the writer
// has gone on inserting, updating and deleting through several more
// epochs — with the pages resident and behind a pool too small for them.
func TestViewUnaffectedByLaterMutations(t *testing.T) {
	type rec struct {
		rid RID
		oid int64
		v   string
	}
	collect := func(f *File[string]) []rec {
		var out []rec
		f.Scan(func(rid RID, oid int64, v string) bool {
			out = append(out, rec{rid, oid, v})
			return true
		})
		return out
	}
	type frozen struct {
		view  *File[string]
		pin   uint64
		want  []rec
		pages int
	}
	run := func(t *testing.T, acct *pager.Accountant) {
		clock := acct.Clock()
		base := clock.Pruners()
		f := NewFile(acct, 5, stringCodec)
		rng := rand.New(rand.NewSource(7))
		var rids []RID
		var views []frozen
		for step := 0; step < 3000; step++ {
			switch {
			case len(rids) == 0 || rng.Intn(10) < 5:
				rids = append(rids, f.Insert(int64(step), fmt.Sprintf("v%d", step)))
			case rng.Intn(10) < 6:
				f.Update(rids[rng.Intn(len(rids))], fmt.Sprintf("u%d", step))
			default:
				i := rng.Intn(len(rids))
				f.Delete(rids[i])
				rids = append(rids[:i], rids[i+1:]...)
			}
			if step%50 != 49 {
				continue
			}
			// End of an epoch: every tenth one keeps a view open.
			view := f.AsOf(clock.Stamp())
			clock.Publish(nil)
			if step%500 == 499 {
				_, pin := clock.Pin()
				views = append(views, frozen{view: view, pin: pin, want: collect(f), pages: f.Pages()})
			}
		}
		for _, fz := range views {
			v := fz.view
			if v.Len() != len(fz.want) || v.Pages() != fz.pages {
				t.Fatalf("epoch %d: view shape %d records/%d pages, want %d/%d",
					fz.pin, v.Len(), v.Pages(), len(fz.want), fz.pages)
			}
			got := collect(v)
			if len(got) != len(fz.want) {
				t.Fatalf("epoch %d: view scans %d records, want %d", fz.pin, len(got), len(fz.want))
			}
			var viaCursor, viaFetch []rec
			cur := v.Cursor()
			for {
				rid, oid, val, ok := cur.Next()
				if !ok {
					break
				}
				viaCursor = append(viaCursor, rec{rid, oid, val})
			}
			fetch := make([]RID, len(fz.want))
			for i, w := range fz.want {
				fetch[i] = w.rid
			}
			v.FetchMany(fetch, func(rid RID, oid int64, val string) bool {
				viaFetch = append(viaFetch, rec{rid, oid, val})
				return true
			})
			for i, w := range fz.want {
				if got[i] != w || viaCursor[i] != w || viaFetch[i] != w {
					t.Fatalf("epoch %d record %d: scan %+v cursor %+v fetch %+v, want %+v",
						fz.pin, i, got[i], viaCursor[i], viaFetch[i], w)
				}
				if oid, val, ok := v.Get(w.rid); !ok || oid != w.oid || val != w.v {
					t.Fatalf("epoch %d Get(%v) = %d %q %v, want %+v", fz.pin, w.rid, oid, val, ok, w)
				}
			}
		}
		f.Release()
		clock.Publish(nil)
		for _, fz := range views {
			clock.Unpin(fz.pin)
		}
		if clock.Pruners() != base {
			t.Fatalf("released file still on the clock: %d pruners, want %d", clock.Pruners(), base)
		}
	}
	t.Run("resident", func(t *testing.T) { run(t, &pager.Accountant{}) })
	t.Run("pooled", func(t *testing.T) {
		acct := &pager.Accountant{}
		pool := pager.NewBufferPool(acct, pager.MinPoolFrames)
		defer pool.Close()
		run(t, acct)
	})
}
