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
	type entry struct {
		label string
		count int
		val   int64
	}
	var entries []entry
	x.tree.ScanAll(func(k string, v int64) bool {
		label, cnt := parseKey(k)
		entries = append(entries, entry{label, cnt, v})
		return true
	})
	fresh := btree.NewLike(x.tree)
	for _, e := range entries {
		fresh.Insert(ItemizeKey(e.label, e.count, newWidth), e.val)
	}
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

// Search answers "classLabel <Op> constant" (Section 4.1.2, Summary-
// BTree Querying), returning the matching references in count order
// (ascending). Probing keys are formed by concatenating the operands;
// missing range endpoints are replaced by the label's 000 / 999-style
// sentinels.
func (x *SummaryBTree) Search(label string, op CmpOp, constant int) []heap.RID {
	var out []heap.RID
	x.SearchFunc(label, op, constant, func(count int, ref heap.RID) bool {
		out = append(out, ref)
		return true
	})
	return out
}

// searchCheckEvery is how many collected entries pass between check
// callbacks in SearchWithCheck — small enough that a huge range probe
// reacts to cancellation promptly, large enough that the callback cost
// vanishes against the leaf scan.
const searchCheckEvery = 256

// SearchWithCheck is Search with a periodic check callback: check is
// invoked with the number of entries collected so far — every
// searchCheckEvery entries during the leaf scan and once after it
// completes — and a non-nil return aborts the probe and surfaces that
// error. The executor threads query cancellation and hit-list memory
// budgeting through it, so a huge range probe stops mid-scan instead of
// only after materializing every pointer.
func (x *SummaryBTree) SearchWithCheck(label string, op CmpOp, constant int, check func(collected int) error) ([]heap.RID, error) {
	var out []heap.RID
	var err error
	x.SearchFunc(label, op, constant, func(count int, ref heap.RID) bool {
		out = append(out, ref)
		if len(out)%searchCheckEvery == 0 {
			if err = check(len(out)); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if err := check(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// SearchFunc streams matches of "classLabel <Op> constant" in ascending
// count order; fn returning false stops the scan. "label >= 0" streams
// the whole label: the interesting order that lets the optimizer
// eliminate a summary-based sort (Rules 3–6).
func (x *SummaryBTree) SearchFunc(label string, op CmpOp, constant int, fn func(count int, ref heap.RID) bool) {
	lo, hi, ok := op.Range(constant, maxCount(x.width))
	if !ok {
		return
	}
	x.tree.ScanRange(ItemizeKey(label, lo, x.width), ItemizeKey(label, hi, x.width), func(k string, v int64) bool {
		_, cnt := parseKey(k)
		return fn(cnt, heap.DecodeRID(v))
	})
}

// SizeBytes estimates the index's storage footprint: key bytes plus an
// 8-byte payload and pointer overhead per entry.
func (x *SummaryBTree) SizeBytes() int {
	total := 0
	x.tree.ScanAll(func(k string, v int64) bool {
		total += len(k) + 8 + 8
		return true
	})
	return total
}
