package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pager"
)

// TestPooledTreeMatchesUnpooled drives the same operation mix through a
// buffer-pooled tree (at a frame budget far below the node count, so
// nodes round-trip through the backing store) and a plain one, then
// asserts identical contents, shape, structural validity, and logical
// I/O counters — pooling must change only physical traffic.
func TestPooledTreeMatchesUnpooled(t *testing.T) {
	var plainAcct pager.Accountant
	plain := New(&plainAcct, 8)

	var poolAcct pager.Accountant
	pool := pager.NewBufferPool(&poolAcct, 2*pager.MinPoolFrames)
	defer pool.Close()
	pooled := New(&poolAcct, 8)

	rng := rand.New(rand.NewSource(42))
	type entry struct {
		k string
		v int64
	}
	var live []entry
	for step := 0; step < 6000; step++ {
		if len(live) == 0 || rng.Intn(3) > 0 {
			// Duplicate-heavy key space to exercise separator-equal probes.
			k := fmt.Sprintf("k%03d", rng.Intn(200))
			v := int64(step)
			plain.Insert(k, v)
			pooled.Insert(k, v)
			live = append(live, entry{k, v})
		} else {
			i := rng.Intn(len(live))
			e := live[i]
			d1 := plain.Delete(e.k, e.v)
			d2 := pooled.Delete(e.k, e.v)
			if d1 != d2 || !d1 {
				t.Fatalf("step %d: Delete(%q,%d) = %v/%v", step, e.k, e.v, d1, d2)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
	if plain.Len() != pooled.Len() || plain.Nodes() != pooled.Nodes() || plain.Height() != pooled.Height() {
		t.Fatalf("shape divergence: len %d/%d nodes %d/%d height %d/%d",
			plain.Len(), pooled.Len(), plain.Nodes(), pooled.Nodes(), plain.Height(), pooled.Height())
	}
	if err := plain.Validate(); err != nil {
		t.Fatalf("plain invalid: %v", err)
	}
	if err := pooled.Validate(); err != nil {
		t.Fatalf("pooled invalid: %v", err)
	}
	collect := func(tr *Tree) []entry {
		var out []entry
		tr.Scan("", func(k string, v int64) bool {
			out = append(out, entry{k, v})
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
			t.Fatalf("entry %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Point lookups across the key space must agree too.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%03d", i)
		if got, want := pooled.SearchEq(k), plain.SearchEq(k); len(got) != len(want) {
			t.Fatalf("SearchEq(%q): %d vs %d hits", k, len(got), len(want))
		}
	}
	ps, bs := plainAcct.Stats(), poolAcct.Stats()
	if ps.PageReads != bs.PageReads || ps.PageWrites != bs.PageWrites ||
		ps.NodeReads != bs.NodeReads || ps.NodeWrites != bs.NodeWrites {
		t.Fatalf("logical counters diverge:\nplain  %+v\npooled %+v", ps, bs)
	}
	if ps.CacheAccesses() != 0 {
		t.Fatalf("plain tree generated cache traffic: %+v", ps)
	}
	if pooled.Nodes() > 2*pager.MinPoolFrames && (bs.Evictions == 0 || bs.PhysReads == 0) {
		t.Fatalf("expected eviction churn at %d nodes in %d frames: %+v",
			pooled.Nodes(), 2*pager.MinPoolFrames, bs)
	}
	if st := pool.Stats(); st.MaxResident > st.Frames {
		t.Fatalf("residency exceeded budget: %+v", st)
	}

	// Release must hand every frame back — once the epoch that released
	// the tree is published, not before: a fresh tree can then fill the
	// pool without tripping over leaked pins.
	pooled.Release()
	if st := pool.Stats(); st.Resident == 0 {
		t.Fatal("Release reclaimed frames before its epoch was published")
	}
	poolAcct.Clock().Publish(nil)
	if st := pool.Stats(); st.Resident != 0 {
		t.Fatalf("Release left %d frames resident", st.Resident)
	}
}

// TestViewUnaffectedByLaterMutations is the mutate-while-view-open
// differential: views taken at successive epochs are checked against a
// copy of the tree's entries made when each was taken, after the writer
// has gone on splitting, merging and collapsing the tree through several
// more epochs — with the nodes resident and behind a pool too small for
// them. Some views also get an ascending and a descending cursor the
// moment they are taken, pulled one entry per writer step, so every
// Next of theirs runs after more splits or merges than the last.
func TestViewUnaffectedByLaterMutations(t *testing.T) {
	collect := func(tr *Tree) []entry {
		var out []entry
		tr.Scan("", func(k string, v int64) bool {
			out = append(out, entry{k, v})
			return true
		})
		return out
	}
	type frozen struct {
		view   *Tree
		pin    uint64
		want   []entry
		height int
	}
	// walk is a cursor on a view pulled between writer steps.
	type walk struct {
		c    Cursor
		desc bool
		want []entry
		got  []entry
	}
	pull := func(w *walk) bool {
		k, v, ok := w.c.Next()
		if ok {
			w.got = append(w.got, entry{k, v})
		}
		return ok
	}
	run := func(t *testing.T, acct *pager.Accountant) {
		clock := acct.Clock()
		base := clock.Pruners()
		tr := New(acct, 4)
		rng := rand.New(rand.NewSource(11))
		var live []entry
		var views []frozen
		var walks, open []*walk
		for step := 0; step < 4000; step++ {
			kept := open[:0]
			for _, w := range open {
				if pull(w) {
					kept = append(kept, w)
				}
			}
			open = kept
			// Grow for 1000 steps, shrink for 1000: the tree gains and loses
			// levels while views of both shapes stay open.
			if len(live) == 0 || rng.Intn(10) < 3+4*(1-step/1000%2) {
				e := entry{fmt.Sprintf("k%03d", rng.Intn(300)), int64(step)}
				tr.Insert(e.k, e.v)
				live = append(live, e)
			} else {
				i := rng.Intn(len(live))
				if !tr.Delete(live[i].k, live[i].v) {
					t.Fatalf("step %d: Delete(%+v) found nothing", step, live[i])
				}
				live = append(live[:i], live[i+1:]...)
			}
			if step%50 != 49 {
				continue
			}
			// End of an epoch: every tenth one keeps a view open.
			view := tr.AsOf(clock.Stamp())
			clock.Publish(nil)
			if step%500 == 499 {
				_, pin := clock.Pin()
				fz := frozen{view: view, pin: pin, want: collect(tr), height: tr.Height()}
				views = append(views, fz)
				if step%1000 == 499 {
					for _, desc := range []bool{false, true} {
						w := &walk{c: view.Cursor(), desc: desc, want: fz.want}
						if desc {
							w.want = make([]entry, len(fz.want))
							for i, e := range fz.want {
								w.want[len(fz.want)-1-i] = e
							}
						}
						from := ""
						if desc {
							from = "\xff" // above every key
						}
						w.c.Seek(from, desc)
						walks, open = append(walks, w), append(open, w)
					}
				}
			}
		}
		for _, w := range open {
			for pull(w) {
			}
		}
		for _, w := range walks {
			if len(w.got) != len(w.want) {
				t.Fatalf("cursor (desc=%v) streamed %d entries, its view holds %d", w.desc, len(w.got), len(w.want))
			}
			for i := range w.want {
				if w.got[i] != w.want[i] {
					t.Fatalf("cursor (desc=%v) entry %d: %+v, want %+v", w.desc, i, w.got[i], w.want[i])
				}
			}
		}
		for _, fz := range views {
			v := fz.view
			if err := v.Validate(); err != nil {
				t.Fatalf("epoch %d: view invalid: %v", fz.pin, err)
			}
			if v.Len() != len(fz.want) || v.Height() != fz.height {
				t.Fatalf("epoch %d: view shape len %d height %d, want %d/%d",
					fz.pin, v.Len(), v.Height(), len(fz.want), fz.height)
			}
			got := collect(v)
			if len(got) != len(fz.want) {
				t.Fatalf("epoch %d: view scans %d entries, want %d", fz.pin, len(got), len(fz.want))
			}
			perKey := map[string]int{}
			for i, w := range fz.want {
				if got[i] != w {
					t.Fatalf("epoch %d entry %d: %+v, want %+v", fz.pin, i, got[i], w)
				}
				perKey[w.k]++
			}
			for k, n := range perKey {
				if hits := v.SearchEq(k); len(hits) != n {
					t.Fatalf("epoch %d SearchEq(%q): %d hits, want %d", fz.pin, k, len(hits), n)
				}
			}
		}
		tr.Release()
		clock.Publish(nil)
		for _, fz := range views {
			clock.Unpin(fz.pin)
		}
		if clock.Pruners() != base {
			t.Fatalf("released tree still on the clock: %d pruners, want %d", clock.Pruners(), base)
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

// TestCursorFaultLeaksNoPin fails the k-th physical read of a cold
// walk, for every k the walk reaches, in both directions: wherever the
// fault lands (the descent, the leaf chain, a backward climb), the
// cursor must drop the pin it held, so once the fault clears every
// frame can be evicted again. A faulted walk is never closed: it is
// abandoned the way a panicking probe abandons it.
func TestCursorFaultLeaksNoPin(t *testing.T) {
	acct := &pager.Accountant{}
	pool := pager.NewBufferPool(acct, pager.MinPoolFrames)
	defer pool.Close()
	tr := New(acct, 4)
	for i := 0; i < 400; i++ {
		tr.Insert(fmt.Sprintf("k%04d", i), int64(i))
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: want a descent through inner nodes", tr.Height())
	}
	walk := func(desc bool) (faulted bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*pager.FaultError); !ok {
					panic(r)
				}
				faulted = true
			}
		}()
		c := tr.Cursor()
		c.Seek("k0200", desc)
		for i := 0; i < 40; i++ {
			c.Next()
		}
		c.Close() // a walk that did not fault closes as usual
		return false
	}
	for _, desc := range []bool{false, true} {
		for k := 2; ; k++ {
			pool.EvictAll()
			acct.SetFaultPolicy(&pager.FaultPolicy{EveryKthRead: k})
			faulted := walk(desc)
			acct.SetFaultPolicy(nil)
			pool.EvictAll()
			if res := pool.Stats().Resident; res != 0 {
				t.Fatalf("desc=%v, fault at read %d: %d frames still pinned", desc, k, res)
			}
			if !faulted {
				break // the walk finished in fewer than k reads
			}
		}
	}
}
