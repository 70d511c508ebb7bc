package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cell"
	"repro/internal/pager"
)

func TestEmptyTree(t *testing.T) {
	tr := New(nil, 8)
	if tr.Len() != 0 || tr.Height() != 1 || tr.Nodes() != 1 {
		t.Errorf("empty: len=%d h=%d nodes=%d", tr.Len(), tr.Height(), tr.Nodes())
	}
	if got := tr.SearchEq("x"); got != nil {
		t.Errorf("SearchEq on empty = %v", got)
	}
	if tr.Delete("x", 1) {
		t.Error("Delete on empty should fail")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMinimumOrder(t *testing.T) {
	tr := New(nil, 1)
	if tr.Order() != 4 {
		t.Errorf("Order = %d, want raised to 4", tr.Order())
	}
}

func TestInsertSearchBasic(t *testing.T) {
	tr := New(nil, 4)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		tr.Insert(k, int64(i))
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i, k := range keys {
		got := tr.SearchEq(k)
		if len(got) != 1 || got[0] != int64(i) {
			t.Errorf("SearchEq(%q) = %v", k, got)
		}
	}
	if _, ok := tr.SearchFirst("alpha"); !ok {
		t.Error("SearchFirst misses alpha")
	}
	if _, ok := tr.SearchFirst("zulu"); ok {
		t.Error("SearchFirst finds zulu")
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New(nil, 4)
	for i := int64(0); i < 20; i++ {
		tr.Insert("dup", i)
	}
	tr.Insert("aaa", 100)
	tr.Insert("zzz", 200)
	got := tr.SearchEq("dup")
	if len(got) != 20 {
		t.Fatalf("SearchEq(dup) found %d", len(got))
	}
	seen := map[int64]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 20 {
		t.Errorf("duplicate payloads lost: %v", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Delete specific (key, val) pairs among duplicates.
	if !tr.Delete("dup", 13) {
		t.Fatal("Delete(dup,13) failed")
	}
	if tr.Delete("dup", 13) {
		t.Error("second Delete(dup,13) should fail")
	}
	if len(tr.SearchEq("dup")) != 19 {
		t.Errorf("after delete: %d", len(tr.SearchEq("dup")))
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate after delete: %v", err)
	}
}

// TestSearchFirstMatchesSearchEq: the single-valued lookup returns the
// first payload SearchEq would (the leftmost duplicate included), misses
// every absent key, and reads no more nodes than SearchEq.
func TestSearchFirstMatchesSearchEq(t *testing.T) {
	var acct pager.Accountant
	tr := New(&acct, 4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tr.Insert(fmt.Sprintf("k%04d", 2*rng.Intn(300)), int64(i))
	}
	for i := -1; i <= 600; i++ {
		key := fmt.Sprintf("k%04d", i)
		before := acct.Stats().NodeReads
		all := tr.SearchEq(key)
		eqReads := acct.Stats().NodeReads - before
		got, ok := tr.SearchFirst(key)
		firstReads := acct.Stats().NodeReads - before - eqReads
		if ok != (len(all) > 0) || (ok && got != all[0]) {
			t.Fatalf("SearchFirst(%q) = %d, %v; SearchEq = %v", key, got, ok, all)
		}
		if firstReads > eqReads {
			t.Fatalf("SearchFirst(%q) read %d nodes, SearchEq %d", key, firstReads, eqReads)
		}
		// A descending seek at key starts at the last duplicate: its run
		// of key is SearchEq reversed, and stopping after the first entry
		// yields SearchEq's last payload.
		desc := drainCursor(tr, key, true, -1)
		for i := range all {
			if i >= len(desc) || desc[i].k != key || desc[i].v != all[len(all)-1-i] {
				t.Fatalf("descending Seek(%q) = %+v, want the reverse of %v", key, desc, all)
			}
		}
		if len(desc) > len(all) && desc[len(all)].k == key {
			t.Fatalf("descending Seek(%q) streams more than %d entries of it", key, len(all))
		}
		if first := drainCursor(tr, key, true, 1); len(all) > 0 && (len(first) != 1 || first[0].v != all[len(all)-1]) {
			t.Fatalf("descending Seek(%q) stopped after one entry = %+v, want payload %d", key, first, all[len(all)-1])
		}
	}
}

// scanRange visits the entries with from <= key <= to through Scan,
// stopping early when fn returns false.
func scanRange(tr *Tree, from, to string, fn func(string, int64) bool) {
	tr.Scan(from, func(k string, v int64) bool { return k <= to && fn(k, v) })
}

func TestScanRangeInclusive(t *testing.T) {
	tr := New(nil, 4)
	for i := 0; i < 50; i++ {
		tr.Insert(fmt.Sprintf("k%03d", i), int64(i))
	}
	var got []string
	scanRange(tr, "k010", "k015", func(k string, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 6 || got[0] != "k010" || got[5] != "k015" {
		t.Errorf("ScanRange = %v", got)
	}
	// Early stop.
	n := 0
	scanRange(tr, "k000", "k049", func(string, int64) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
	// Missing bounds still work.
	got = nil
	scanRange(tr, "k0105", "k012x", func(k string, v int64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[0] != "k011" || got[1] != "k012" {
		t.Errorf("ScanRange between keys = %v", got)
	}
}

// TestScanFromAndAll: a range from a key to past the last one runs to
// the end of the leaf chain, and Scan from "" visits every entry in key
// order.
func TestScanFromAndAll(t *testing.T) {
	tr := New(nil, 4)
	for i := 0; i < 30; i++ {
		tr.Insert(fmt.Sprintf("k%03d", i), int64(i))
	}
	var got []int64
	scanRange(tr, "k025", "\xff", func(k string, v int64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 5 || got[0] != 25 {
		t.Errorf("ScanRange to the end = %v", got)
	}
	total := 0
	last := ""
	tr.Scan("", func(k string, v int64) bool {
		if k < last {
			t.Fatalf("Scan out of order: %q after %q", k, last)
		}
		last = k
		total++
		return true
	})
	if total != 30 {
		t.Errorf("Scan visited %d", total)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	var acct pager.Accountant
	tr := New(&acct, 16)
	n := 10000
	for i := 0; i < n; i++ {
		tr.Insert(fmt.Sprintf("key%08d", i), int64(i))
	}
	maxH := int(math.Ceil(math.Log(float64(n))/math.Log(float64(tr.Order()/2)))) + 2
	if tr.Height() > maxH {
		t.Errorf("height %d exceeds log bound %d", tr.Height(), maxH)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// An equality probe touches O(height) nodes.
	acct.Reset()
	tr.SearchEq("key00005000")
	if reads := acct.Stats().PageReads; reads > int64(tr.Height()+2) {
		t.Errorf("probe read %d nodes, height %d", reads, tr.Height())
	}
}

func TestDeleteRebalancesToValidity(t *testing.T) {
	tr := New(nil, 4)
	n := 500
	for i := 0; i < n; i++ {
		tr.Insert(fmt.Sprintf("k%04d", i), int64(i))
	}
	// Delete in an order that forces merges and borrows everywhere.
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for step, i := range perm {
		if !tr.Delete(fmt.Sprintf("k%04d", i), int64(i)) {
			t.Fatalf("Delete k%04d failed", i)
		}
		if step%25 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("final Validate: %v", err)
	}
}

// Property P6: a long random workload of inserts and deletes (with
// duplicate keys) stays consistent with a reference multimap and keeps
// all structural invariants.
func TestRandomOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New(nil, 6)
	ref := map[string][]int64{}
	keyspace := make([]string, 60)
	for i := range keyspace {
		keyspace[i] = fmt.Sprintf("key%02d", i)
	}
	nextVal := int64(0)

	for step := 0; step < 8000; step++ {
		k := keyspace[rng.Intn(len(keyspace))]
		if rng.Intn(3) != 0 { // insert
			tr.Insert(k, nextVal)
			ref[k] = append(ref[k], nextVal)
			nextVal++
		} else if vals := ref[k]; len(vals) > 0 { // delete one
			vi := rng.Intn(len(vals))
			v := vals[vi]
			if !tr.Delete(k, v) {
				t.Fatalf("step %d: Delete(%q,%d) failed", step, k, v)
			}
			ref[k] = append(vals[:vi], vals[vi+1:]...)
		}
		if step%500 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("final: %v", err)
	}
	total := 0
	for k, vals := range ref {
		total += len(vals)
		got := tr.SearchEq(k)
		if len(got) != len(vals) {
			t.Fatalf("SearchEq(%q) = %d entries, want %d", k, len(got), len(vals))
		}
		want := append([]int64(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SearchEq(%q) payloads %v != %v", k, got, want)
			}
		}
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, ref total = %d", tr.Len(), total)
	}
	// Range scan equals reference over a random window.
	lo, hi := keyspace[10], keyspace[40]
	wantN := 0
	for k, vals := range ref {
		if k >= lo && k <= hi {
			wantN += len(vals)
		}
	}
	gotN := 0
	lastKey := ""
	scanRange(tr, lo, hi, func(k string, v int64) bool {
		if k < lastKey {
			t.Fatalf("scan out of order")
		}
		lastKey = k
		gotN++
		return true
	})
	if gotN != wantN {
		t.Fatalf("ScanRange count %d != %d", gotN, wantN)
	}

	// Cursors seeked from random keys — present, absent, below the first
	// and above the last — stream the sorted reference from there in
	// either direction, duplicates in insertion order ascending and in
	// reverse descending, up to a random early stop.
	var all []entry
	for k, vals := range ref {
		for _, v := range vals {
			all = append(all, entry{k, v})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].k != all[j].k {
			return all[i].k < all[j].k
		}
		return all[i].v < all[j].v
	})
	seeks := []string{"", "a", "key", "key00", "key5", "key59x", "z"}
	for i := 0; i < 200; i++ {
		seeks = append(seeks, keyspace[rng.Intn(len(keyspace))]+[]string{"", "!", "~"}[rng.Intn(3)])
	}
	for _, from := range seeks {
		for _, desc := range []bool{false, true} {
			want := cursorReference(all, from, desc)
			stop := len(want)
			if rng.Intn(2) == 0 {
				stop = rng.Intn(len(want) + 1)
			}
			got := drainCursor(tr, from, desc, stop)
			if len(got) != stop {
				t.Fatalf("Seek(%q, desc=%v): %d entries before the stop at %d", from, desc, len(got), stop)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Seek(%q, desc=%v) entry %d: %+v, want %+v", from, desc, i, got[i], want[i])
				}
			}
		}
	}
}

// entry is one (key, payload) pair of a tree.
type entry struct {
	k string
	v int64
}

// cursorReference is the sequence a cursor seeked at from streams over a
// tree holding all (sorted by key, then by insertion): the entries >=
// from in order, or with desc the entries <= from in reverse.
func cursorReference(all []entry, from string, desc bool) []entry {
	var out []entry
	if !desc {
		for _, e := range all {
			if e.k >= from {
				out = append(out, e)
			}
		}
		return out
	}
	for i := len(all) - 1; i >= 0; i-- {
		if all[i].k <= from {
			out = append(out, all[i])
		}
	}
	return out
}

// drainCursor seeks a cursor on tr and pulls up to n entries (n < 0:
// all of them).
func drainCursor(tr *Tree, from string, desc bool, n int) []entry {
	c := tr.Cursor()
	defer c.Close()
	c.Seek(from, desc)
	var out []entry
	for len(out) != n {
		k, v, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, entry{k, v})
	}
	return out
}

func TestInsertionCostLogarithmic(t *testing.T) {
	var acct pager.Accountant
	tr := New(&acct, 32)
	for i := 0; i < 20000; i++ {
		tr.Insert(fmt.Sprintf("k%08d", i), int64(i))
	}
	acct.Reset()
	tr.Insert("k00010000x", 1)
	cost := acct.Stats().Total()
	// One root-to-leaf descent plus at most a split chain.
	if cost > int64(3*tr.Height()+4) {
		t.Errorf("insert touched %d pages (height %d)", cost, tr.Height())
	}
}

// FuzzNodeImage feeds arbitrary bytes to the node decoder: it returns a
// *cell.Error or a node that re-encodes to exactly the input.
func FuzzNodeImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := nodeCodec{}.DecodePage(data, 2, 5)
		if err != nil {
			if ce := (*cell.Error)(nil); !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if img, _ := (nodeCodec{}).AppendPage(nil, n); !bytes.Equal(img, data) {
			t.Fatalf("node re-encodes differently:\n got %x\nwant %x", img, data)
		}
	})
}
