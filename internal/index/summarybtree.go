// Package index implements the paper's two Classifier-type indexing
// schemes (Section 4):
//
//   - SummaryBTree — the proposed scheme: a B-Tree variant built directly
//     over the de-normalized summary objects via itemization
//     ("label:NNN" keys with fixed-width extended counts), whose leaf
//     entries are *backward pointers* to the annotated data tuples in
//     relation R rather than to R_SummaryStorage.
//   - Baseline — the straightforward scheme: the classifier components
//     are replicated into a normalized side table with a derived
//     concatenated column, indexed by a standard B-Tree; probes must
//     join back through the normalized table to reach the data.
package index

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/pager"
)

// CmpOp is a comparison operator of a classifier predicate
// "classLabel <Op> constant".
type CmpOp int

// The comparison operators the index accelerates.
const (
	OpEq CmpOp = iota
	OpLt
	OpLe
	OpGt
	OpGe
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Range returns the interval [lo, hi] of counts in [0, top] that
// satisfy "count <op> constant" — the probe range of both indexing
// schemes, whose keys hold counts up to top at their current width; ok
// is false when no count qualifies.
func (op CmpOp) Range(constant, top int) (lo, hi int, ok bool) {
	lo, hi = 0, top
	switch op {
	case OpEq:
		lo, hi = constant, constant
	case OpLt:
		hi = constant - 1
	case OpLe:
		hi = constant
	case OpGt:
		lo = constant + 1
	case OpGe:
		lo = constant
	}
	lo, hi = max(lo, 0), min(hi, top)
	return lo, hi, lo <= hi
}

// DefaultWidth is the initial extended-count width: 3 characters, per
// the paper, widened automatically when a count exceeds 999.
const DefaultWidth = 3

// ItemizeKey converts one (classLabel, annotationCnt) representative to
// its index key "classLabel:NNN" with the count left-padded to width
// digits — the Itemization step of Section 4.1.1. The padding preserves
// numeric order under string comparison (invariant P5).
func ItemizeKey(label string, count, width int) string {
	return fmt.Sprintf("%s:%0*d", strings.ToLower(label), width, count)
}

// maxCount returns the largest count representable at the given width.
func maxCount(width int) int {
	m := 1
	for i := 0; i < width; i++ {
		m *= 10
	}
	return m - 1
}

// SummaryBTree indexes one classifier summary instance over one
// relation. Leaf payloads are encoded heap RIDs: either backward
// pointers into the data relation R (the proposed design) or
// conventional pointers into R_SummaryStorage (the Figure 13 ablation).
type SummaryBTree struct {
	Instance string
	tree     *btree.Tree
	width    int
	rebuilds int
	// updates counts maintenance operations applied to the live index
	// (entry inserts, deletes, and label re-keys), read atomically by the
	// ingest benchmark to compare eager vs net-delta maintenance traffic.
	// AsOf shells start at zero; snapshot views are never maintained.
	updates int64
}

// NewSummaryBTree builds an empty index for the given instance.
func NewSummaryBTree(acct *pager.Accountant, instance string) *SummaryBTree {
	return &SummaryBTree{
		Instance: instance,
		tree:     btree.New(acct, btree.DefaultOrder),
		width:    DefaultWidth,
	}
}

// AsOf returns a read-only snapshot view of the index frozen at epoch
// snap (see btree.Tree.AsOf for the contract).
func (x *SummaryBTree) AsOf(snap uint64) *SummaryBTree {
	return &SummaryBTree{
		Instance: x.Instance,
		tree:     x.tree.AsOf(snap),
		width:    x.width,
		rebuilds: x.rebuilds,
	}
}

// Release frees the index's storage once no pinned epoch can still read
// it through a view. The index must not be used afterwards.
func (x *SummaryBTree) Release() { x.tree.Release() }

// Width returns the current extended-count width.
func (x *SummaryBTree) Width() int { return x.width }

// Rebuilds returns how many automatic width-extension rebuilds occurred.
func (x *SummaryBTree) Rebuilds() int { return x.rebuilds }

// Len returns the number of indexed keys (k entries per indexed object).
func (x *SummaryBTree) Len() int { return x.tree.Len() }

// UpdateOps returns the cumulative count of maintenance operations
// (inserts, deletes, re-keys) applied to this index.
func (x *SummaryBTree) UpdateOps() int64 { return atomic.LoadInt64(&x.updates) }

// Tree exposes the underlying B+Tree (for size accounting and tests).
func (x *SummaryBTree) Tree() *btree.Tree { return x.tree }

// IndexObject inserts every representative of a classifier object,
// pointing at ref (the data tuple's heap location for backward pointers).
// This is the "Adding Annotation — Insertion" path: O(k·log_B kN).
func (x *SummaryBTree) IndexObject(obj *model.SummaryObject, ref heap.RID) error {
	if obj.Type != model.SummaryClassifier {
		return fmt.Errorf("index: SummaryBTree indexes Classifier objects, got %s", obj.Type)
	}
	for _, r := range obj.Reps {
		x.insertKey(r.Label, r.Count, ref)
	}
	return nil
}

// RemoveObject deletes every representative's entry ("Deleting Tuple"):
// O(k·log_B kN).
func (x *SummaryBTree) RemoveObject(obj *model.SummaryObject, ref heap.RID) {
	for _, r := range obj.Reps {
		x.tree.Delete(ItemizeKey(r.Label, r.Count, x.width), ref.Encode())
		atomic.AddInt64(&x.updates, 1)
	}
}

// UpdateLabel re-keys a single class label from oldCount to newCount —
// the "Adding Annotation — Update" path that deletes and re-inserts only
// the modified label: O(2·log_B kN).
func (x *SummaryBTree) UpdateLabel(label string, oldCount, newCount int, ref heap.RID) {
	x.tree.Delete(ItemizeKey(label, oldCount, x.width), ref.Encode())
	atomic.AddInt64(&x.updates, 1)
	x.insertKey(label, newCount, ref)
}

func (x *SummaryBTree) insertKey(label string, count int, ref heap.RID) {
	atomic.AddInt64(&x.updates, 1)
	if count > maxCount(x.width) {
		x.widen(count)
	}
	x.tree.Insert(ItemizeKey(label, count, x.width), ref.Encode())
}

// widen rebuilds the index with enough digits for count — the paper's
// rare automatic re-build when a label's count exceeds 999.
func (x *SummaryBTree) widen(count int) {
	newWidth := x.width + 1
	for count > maxCount(newWidth) {
		newWidth++
	}
	fresh := btree.NewLike(x.tree)
	x.tree.Scan("", func(k string, v int64) bool {
		label, cnt := parseKey(k)
		fresh.Insert(ItemizeKey(label, cnt, newWidth), v)
		return true
	})
	x.tree.Release()
	x.tree = fresh
	x.width = newWidth
	x.rebuilds++
}

// parseKey splits "label:NNN" back into its components.
func parseKey(k string) (string, int) {
	i := strings.LastIndexByte(k, ':')
	if i < 0 {
		return k, 0
	}
	n := 0
	for _, c := range k[i+1:] {
		n = n*10 + int(c-'0')
	}
	return k[:i], n
}

// Cursor is a pull cursor over the hits of "classLabel <Op> constant"
// on either indexing scheme, in count order or, with desc, in its exact
// reverse, ties included. The probe keys concatenate the operands, a
// missing endpoint replaced by the label's 000 / 999-style sentinel.
// The scheme's deref turns each payload into a hit, or skips it. Close a
// cursor abandoned before exhaustion.
type Cursor[T any] struct {
	c      btree.Cursor
	lo, hi string
	desc   bool
	deref  func(enc int64) (T, bool)
}

// newCursor seeks a cursor over tree, whose counts are width digits.
func newCursor[T any](tree *btree.Tree, width int, label string, op CmpOp, constant int, desc bool, deref func(int64) (T, bool)) Cursor[T] {
	c := Cursor[T]{desc: desc, deref: deref}
	lo, hi, ok := op.Range(constant, maxCount(width))
	if !ok {
		return c // the zero btree.Cursor is exhausted
	}
	c.lo, c.hi, c.c = ItemizeKey(label, lo, width), ItemizeKey(label, hi, width), tree.Cursor()
	if desc {
		c.c.Seek(c.hi, true)
	} else {
		c.c.Seek(c.lo, false)
	}
	return c
}

// Next returns the next hit; ok is false once the range is exhausted,
// and the cursor has then dropped its pin.
func (c *Cursor[T]) Next() (hit T, ok bool) {
	for {
		k, v, ok := c.c.Next()
		if !ok || (c.desc && k < c.lo) || (!c.desc && k > c.hi) {
			c.c.Close()
			return hit, false
		}
		if hit, ok = c.deref(v); ok {
			return hit, true
		}
	}
}

// Close releases the cursor's pin.
func (c *Cursor[T]) Close() { c.c.Close() }

// drain returns every hit c streams.
func drain[T any](c Cursor[T]) (hits []T) {
	defer c.Close()
	for hit, ok := c.Next(); ok; hit, ok = c.Next() {
		hits = append(hits, hit)
	}
	return hits
}

// Cursor answers "classLabel <Op> constant" (Section 4.1.2, Summary-
// BTree Querying) with backward pointers to the data tuples, straight
// from the leaves. "label >= 0" streams the whole label: the interesting
// order that lets the optimizer eliminate a summary-based sort (Rules
// 3–6), ascending or descending.
func (x *SummaryBTree) Cursor(label string, op CmpOp, constant int, desc bool) Cursor[heap.RID] {
	return newCursor(x.tree, x.width, label, op, constant, desc, func(enc int64) (heap.RID, bool) {
		return heap.DecodeRID(enc), true
	})
}

// Search returns the hits of Cursor in ascending count order.
func (x *SummaryBTree) Search(label string, op CmpOp, constant int) []heap.RID {
	return drain(x.Cursor(label, op, constant, false))
}

// SizeBytes estimates the index's storage footprint: key bytes plus an
// 8-byte payload and pointer overhead per entry.
func (x *SummaryBTree) SizeBytes() int { return treeBytes(x.tree) }

// treeBytes estimates a tree's storage: key bytes plus an 8-byte
// payload and 8 bytes of pointer overhead per entry.
func treeBytes(t *btree.Tree) (total int) {
	t.Scan("", func(k string, _ int64) bool {
		total += len(k) + 16
		return true
	})
	return total
}
