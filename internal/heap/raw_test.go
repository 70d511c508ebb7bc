package heap

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/model"
	"repro/internal/pager"
)

// summarySet builds a one-object classifier set of four labels with
// eight annotation IDs each, the shape of a summary-storage cell.
func summarySet(oid int64) model.SummarySet {
	o := &model.SummaryObject{ObjID: oid, InstanceID: "ClassBird1", TupleOID: oid, Type: model.SummaryClassifier}
	for _, label := range []string{"Anatomy", "Behavior", "Disease", "Other"} {
		rp := model.Rep{Label: label, Count: 8}
		for e := int64(0); e < 8; e++ {
			rp.Elements = append(rp.Elements, oid*100+e)
		}
		o.Reps = append(o.Reps, rp)
	}
	return model.SummarySet{o}
}

// pooledSummaryPage fills one 64-slot page of summary sets behind a pool
// and evicts it, so the next touch reads it back raw.
func pooledSummaryPage(tb testing.TB) (*pager.BufferPool, *File[model.SummarySet], []RID) {
	acct := &pager.Accountant{}
	pool := pager.NewBufferPool(acct, pager.MinPoolFrames)
	tb.Cleanup(func() { pool.Close() })
	f := NewFile(acct, 64, model.SummarySetCodec)
	var rids []RID
	for oid := int64(1); oid <= 64; oid++ {
		rids = append(rids, f.Insert(oid, summarySet(oid)))
	}
	pool.EvictAll()
	return pool, f, rids
}

// TestPooledGetDecodesOneCell pins "a point fetch touches one cell": a
// Get that misses costs the page object and one cell's decode, not the
// page's 64 cells.
func TestPooledGetDecodesOneCell(t *testing.T) {
	pool, f, rids := pooledSummaryPage(t)
	one := model.AppendSummarySet(nil, summarySet(40))
	perCell := testing.AllocsPerRun(100, func() { model.DecodeSummarySet(one) })
	var set model.SummarySet
	got := testing.AllocsPerRun(100, func() {
		pool.EvictAll()
		_, set, _ = f.Get(rids[39])
	})
	if !set.Equal(summarySet(40)) {
		t.Fatalf("Get = %v, want %v", set, summarySet(40))
	}
	if limit := perCell + 4; got > limit {
		t.Fatalf("a pooled Get after EvictAll made %.0f allocations; one cell decodes in %.0f, so the bound is %.0f", got, perCell, limit)
	}
}

// BenchmarkPoolMissGet is one point fetch that misses the pool: evict,
// read the page image back, decode the cell asked for.
func BenchmarkPoolMissGet(b *testing.B) {
	pool, f, rids := pooledSummaryPage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.EvictAll()
		if _, _, ok := f.Get(rids[39]); !ok {
			b.Fatal("Get missed its record")
		}
	}
}

// TestRawPageReadersVersusClone races snapshot readers touching the cells
// of raw pages against the writer cloning those pages: every epoch the
// writer rewrites every record to the epoch's number and evicts the
// pages, so readers read them back raw while the next epoch's first
// update clones them. A reader pinned at epoch e must find e everywhere.
func TestRawPageReadersVersusClone(t *testing.T) {
	acct := &pager.Accountant{}
	pool := pager.NewBufferPool(acct, pager.MinPoolFrames)
	defer pool.Close()
	clock := acct.Clock()
	f := NewFile(acct, 64, intCodec)
	var rids []RID
	for i := 0; i < 100; i++ {
		rids = append(rids, f.Insert(int64(i), 1))
	}
	clock.Publish(nil) // epoch 1 holds 1 everywhere
	pool.EvictAll()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
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
				v := f.AsOf(pin) // updates leave the file's shape unchanged
				v.Scan(func(rid RID, _ int64, val int) bool {
					if uint64(val) != pin {
						t.Errorf("epoch %d scans %d at %v", pin, val, rid)
					}
					return true
				})
				if _, val, ok := v.Get(rids[len(rids)/2]); !ok || uint64(val) != pin {
					t.Errorf("epoch %d gets %d %v", pin, val, ok)
				}
				clock.Unpin(pin)
			}
		}()
	}
	for e := 2; e <= 40; e++ {
		for _, rid := range rids {
			f.Update(rid, e)
		}
		clock.Publish(nil)
		pool.EvictAll()
	}
	close(stop)
	wg.Wait()
}

// malformedCodec is intCodec except that the value -1 is written as a
// cell no decoder accepts: its page image is CRC-valid, one cell is not.
var malformedCodec = cell.Codec[int]{
	Append: func(dst []byte, v int) []byte {
		if v == -1 {
			return append(dst, 0x80) // a varint that never ends
		}
		return intCodec.Append(dst, v)
	},
	Decode: intCodec.Decode,
}

// TestCorruptCellTypedOnEveryPath: every path that touches the malformed
// cell of a raw page — point fetch, batched fetch, scan, cursor, and the
// writer's decode before a mutation — panics with *pager.CorruptPageError
// naming the page's space and number; the healthy cells around it read
// back intact.
func TestCorruptCellTypedOnEveryPath(t *testing.T) {
	acct := &pager.Accountant{}
	pool := pager.NewBufferPool(acct, pager.MinPoolFrames)
	defer pool.Close()
	f := NewFile(acct, 4, malformedCodec)
	space := int32(pool.Stats().Spaces - 1)
	var rids []RID
	for i := 0; i < 12; i++ {
		v := i
		if i == 6 {
			v = -1
		}
		rids = append(rids, f.Insert(int64(i), v))
	}
	bad := rids[6]
	paths := map[string]func(){
		"Get":       func() { f.Get(bad) },
		"FetchMany": func() { f.FetchMany(rids, func(RID, int64, int) bool { return true }) },
		"Scan":      func() { f.Scan(func(RID, int64, int) bool { return true }) },
		"Cursor": func() {
			c := f.Cursor()
			defer c.Close()
			for _, _, _, ok := c.Next(); ok; _, _, _, ok = c.Next() {
			}
		},
		"Update": func() { f.Update(rids[5], 50) },
	}
	for name, fn := range paths {
		pool.EvictAll()
		func() {
			defer func() {
				r := recover()
				cpe, ok := r.(*pager.CorruptPageError)
				if !ok {
					t.Fatalf("%s: panic %T (%v), want *pager.CorruptPageError", name, r, r)
				}
				if cpe.Space != space || cpe.Page != int64(bad.Page) {
					t.Fatalf("%s: error names page %d in space %d, want %d in %d", name, cpe.Page, cpe.Space, bad.Page, space)
				}
			}()
			fn()
		}()
	}
	for i, rid := range rids {
		pool.EvictAll()
		if i/4 == 1 {
			continue // the malformed cell's page
		}
		if oid, v, ok := f.Get(rid); !ok || oid != int64(i) || v != i {
			t.Fatalf("Get(%v) = %d %d %v, want %d %d", rid, oid, v, ok, i, i)
		}
	}
}

// FuzzHeapPageImage feeds arbitrary bytes to the heap page decoder: it
// returns a *cell.Error or a raw page; a raw page's cells decode or panic
// *pager.CorruptPageError; and a page whose cells all decode re-encodes
// to exactly the input.
func FuzzHeapPageImage(f *testing.F) {
	codec := pageCodec[string]{stringCodec}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.DecodePage(data, 3, 7)
		if err != nil {
			if ce := (*cell.Error)(nil); !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		p := v.(*page[string])
		var slots []record[string]
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*pager.CorruptPageError); !ok {
						t.Fatalf("cell decode panicked %T: %v", r, r)
					}
				}
			}()
			slots = p.copySlots()
		}()
		if slots == nil && p.count() > 0 {
			return // a malformed cell, reported typed
		}
		live := 0
		for _, s := range slots {
			if s.live {
				live++
			}
		}
		if live != p.nLive {
			t.Fatalf("nLive %d, %d live slots", p.nLive, live)
		}
		img, _ := codec.AppendPage(nil, &page[string]{slots: slots, nLive: live, stamp: p.stamp})
		if !bytes.Equal(img, data) {
			t.Fatalf("re-encoded image differs:\n got %x\nwant %x", img, data)
		}
	})
}
