// Package btree implements a B+Tree with string keys, int64 payloads,
// duplicate-key support, and leaf-chained range scans. It is the
// standard index of the engine and the substrate the Summary-BTree
// (internal/index) builds on: the Summary-BTree keeps the same structure
// and maintenance algorithms and differs only in what its leaf payloads
// point at (backward pointers to the data heap).
//
// Node accesses are charged to a pager.Accountant, one read per node
// visited and one write per node modified, so logarithmic access-path
// claims are testable. Nodes are addressed by id and live in a
// pager.Store, which decides where a node is kept (resident, or in
// buffer-pool frames) and which version of it a reader sees. Mutations
// pin the descent path (plus the siblings a rebalance touches) for their
// duration; scans pin hand-over-hand, one node at a time. AsOf freezes
// the tree's root and counts into a read-only view whose reads resolve
// every node to the version visible at the view's epoch, without taking
// the writer's lock. Freed nodes (merge victims, collapsed roots,
// released trees) are reclaimed only once no pinned epoch can still
// reach them; node ids are never reused.
package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/pager"
)

// DefaultOrder is the default maximum number of entries per node.
const DefaultOrder = 64

// Tree is a B+Tree. Not safe for concurrent mutation; any number of AsOf
// views may read concurrently with the single mutator.
type Tree struct {
	acct  *pager.Accountant
	store *pager.Store[*node]
	// snap is the epoch reads resolve nodes at: pager.Latest on the tree
	// itself, the frozen epoch on an AsOf view (whose rootID/size/nodes
	// are then copies of the writer's fields at that epoch).
	snap   uint64
	order  int // max entries per node
	rootID int64
	nextID int64
	size   int
	nodes  int
}

// node ids start at 1; 0 means "none" (end of the leaf chain). stamp is
// the epoch of the mutation that produced this version.
type node struct {
	id       int64
	leaf     bool
	keys     []string
	vals     []int64 // leaf only; len == len(keys)
	children []int64 // internal only; len == len(keys)+1
	next     int64   // leaf chain
	stamp    uint64
}

func (n *node) Stamp() uint64 { return n.stamp }

// CloneAt deep-copies a node version for copy-on-write mutation.
func (n *node) CloneAt(st uint64) *node {
	return &node{
		id: n.id, leaf: n.leaf,
		keys:     append([]string(nil), n.keys...),
		vals:     append([]int64(nil), n.vals...),
		children: append([]int64(nil), n.children...),
		next:     n.next, stamp: st,
	}
}

// nodeCodec is a tree's pager.PageCodec. A node image is the node's
// stamp, id, leaf flag, leaf-chain link and key count, its keys, then one
// payload per key (leaf) or one child per key plus one (internal), in the
// cell encoding (package cell). Decoding is strict and copies the keys out
// of the image.
type nodeCodec struct{}

func (nodeCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	n := v.(*node)
	dst = binary.AppendUvarint(dst, n.stamp)
	dst = binary.AppendVarint(dst, n.id)
	dst = cell.AppendBool(dst, n.leaf)
	dst = binary.AppendVarint(dst, n.next)
	dst = cell.AppendStrings(dst, n.keys)
	ptrs := n.children
	if n.leaf {
		ptrs = n.vals
	}
	for _, p := range ptrs {
		dst = binary.AppendVarint(dst, p)
	}
	return dst, nil
}

func (nodeCodec) DecodePage(data []byte, _ int32, _ int64) (any, error) {
	r := cell.NewReader(data)
	n := &node{stamp: r.Uvarint(), id: r.Varint(), leaf: r.Bool(), next: r.Varint(), keys: r.Texts()}
	if n.leaf {
		n.vals = r.Varints(len(n.keys))
	} else {
		n.children = r.Varints(len(n.keys) + 1)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return n, nil
}

// New builds a tree of the given order (maximum entries per node); order
// < 4 is raised to 4. Its nodes are stored under acct's epoch clock and
// in its buffer pool when it has one.
func New(acct *pager.Accountant, order int) *Tree {
	if order < 4 {
		order = 4
	}
	t := &Tree{
		acct:   acct,
		store:  pager.NewStore[*node](acct, nodeCodec{}),
		snap:   pager.Latest,
		order:  order,
		nextID: 1,
		nodes:  1,
	}
	s := t.store.Pins()
	t.rootID = t.alloc(&s, true).id
	s.Release()
	return t
}

// NewLike builds an empty tree sharing t's order and accountant — used
// when an index must be rebuilt (e.g. Summary-BTree width extension).
// Call Release on the old tree once it is swapped out.
func NewLike(t *Tree) *Tree { return New(t.acct, t.order) }

// AsOf returns a read-only view of the tree frozen at epoch snap. It
// must be taken while the tree's current state IS the state at snap
// (the engine takes views at epoch publication, under the writer lock);
// the view then resolves node versions against later mutations without
// any lock, for as long as the caller holds a clock pin on snap.
func (t *Tree) AsOf(snap uint64) *Tree {
	g := *t
	g.snap = snap
	return &g
}

// Release frees the tree's nodes once no pinned epoch can still resolve
// them through a snapshot view. The tree must not be used afterwards.
func (t *Tree) Release() { t.store.Release() }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Order returns the tree's order.
func (t *Tree) Order() int { return t.order }

// Nodes returns the number of allocated nodes.
func (t *Tree) Nodes() int { return t.nodes }

// peek returns id's node for read-only inspection without holding a pin:
// the returned object stays valid after the pin is gone (if its frame is
// later evicted the object is merely a stale immutable copy, which
// read-only single-threaded callers tolerate).
func (t *Tree) peek(id int64) *node {
	r := t.store.Reader(t.snap)
	n := r.Page(id)
	r.Release()
	return n
}

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() int {
	h, n := 1, t.peek(t.rootID)
	for !n.leaf {
		h++
		n = t.peek(n.children[0])
	}
	return h
}

func (t *Tree) minEntries() int { return t.order / 2 }

// pins is the set of nodes a mutation holds pinned: its descent path plus
// the siblings a rebalance touches, so the frame budget a tree needs is
// about twice its height; pager.MinPoolFrames covers default-order trees.
type pins = pager.Pins[*node]

// alloc creates a node under a fresh id, pinned in the mutation's pin set
// and dirty.
func (t *Tree) alloc(s *pins, leaf bool) *node {
	n := &node{id: t.nextID, leaf: leaf, stamp: t.store.Stamp()}
	t.nextID++
	s.New(n.id, n)
	return n
}

// --- search ---------------------------------------------------------------

// lowerBound returns the index of the first key in n >= key.
func lowerBound(n *node, key string) int {
	return sort.SearchStrings(n.keys, key)
}

// upperBound returns the index of the first key in n > key.
func upperBound(n *node, key string) int {
	return sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
}

// descendLower walks from the root to the leaf that may contain key,
// using lower-bound routing (leftmost occurrence for duplicates); each
// visited node is one page read. Pins hand-over-hand through r; the
// returned leaf is left pinned for the caller.
func (t *Tree) descendLower(r *pager.Reader[*node], key string) *node {
	n := r.Page(t.rootID)
	t.acct.ReadNode(1)
	for !n.leaf {
		// Separator keys[i] is the minimum key of children[i+1]: route to
		// children[i] where i = first separator > key... for leftmost
		// duplicates we must go left of equal separators.
		//
		// keys[i] == key means children[i+1] starts at key; the leftmost
		// duplicate may still live at the end of children[i]'s subtree, so
		// descend into children[i].
		n = r.Page(n.children[lowerBound(n, key)])
		t.acct.ReadNode(1)
	}
	return n
}

// SearchEq returns the payloads of every entry with exactly key.
func (t *Tree) SearchEq(key string) []int64 {
	var out []int64
	t.ScanRange(key, key, func(k string, v int64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Contains reports whether key is present.
func (t *Tree) Contains(key string) bool {
	found := false
	t.ScanRange(key, key, func(string, int64) bool {
		found = true
		return false
	})
	return found
}

// ScanRange visits every entry with from <= key <= to in key order,
// stopping early when fn returns false. An empty `to` of "\xff..." is not
// required: use ScanFrom for open-ended scans.
func (t *Tree) ScanRange(from, to string, fn func(key string, val int64) bool) {
	r := t.store.Reader(t.snap)
	defer r.Release()
	n := t.descendLower(&r, from)
	for {
		i := lowerBound(n, from)
		for ; i < len(n.keys); i++ {
			if n.keys[i] > to {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		if n.next == 0 {
			return
		}
		n = r.Page(n.next)
		t.acct.ReadNode(1)
		from = "" // subsequent leaves start at position 0
	}
}

// ScanFrom visits every entry with key >= from in key order.
func (t *Tree) ScanFrom(from string, fn func(key string, val int64) bool) {
	r := t.store.Reader(t.snap)
	defer r.Release()
	n := t.descendLower(&r, from)
	for {
		i := lowerBound(n, from)
		for ; i < len(n.keys); i++ {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
		if n.next == 0 {
			return
		}
		n = r.Page(n.next)
		t.acct.ReadNode(1)
		from = ""
	}
}

// ScanAll visits every entry in key order.
func (t *Tree) ScanAll(fn func(key string, val int64) bool) { t.ScanFrom("", fn) }

// --- insert ---------------------------------------------------------------

// Insert adds (key, val). Duplicate keys are allowed; duplicate
// (key, val) pairs are stored as distinct entries.
func (t *Tree) Insert(key string, val int64) {
	s := t.store.Pins()
	defer s.Release()
	sep, rightID := t.insert(&s, t.rootID, key, val)
	if rightID != 0 {
		newRoot := t.alloc(&s, false)
		newRoot.keys = []string{sep}
		newRoot.children = []int64{t.rootID, rightID}
		t.rootID = newRoot.id
		t.nodes++
		t.acct.WriteNode(1)
	}
	t.size++
}

// insert descends into id's node; on child split it absorbs the new
// separator. Returns a (separator, right sibling id) pair when the node
// itself splits, with rightID 0 meaning no split.
func (t *Tree) insert(s *pins, id int64, key string, val int64) (string, int64) {
	n := s.Writable(id)
	t.acct.ReadNode(1)
	if n.leaf {
		i := upperBound(n, key)
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		s.MarkDirty(id)
		t.acct.WriteNode(1)
		if len(n.keys) > t.order {
			return t.splitLeaf(s, n)
		}
		return "", 0
	}
	ci := upperBound(n, key)
	sep, rightID := t.insert(s, n.children[ci], key, val)
	if rightID == 0 {
		return "", 0
	}
	n.keys = append(n.keys, "")
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, 0)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = rightID
	s.MarkDirty(id)
	t.acct.WriteNode(1)
	if len(n.keys) > t.order {
		return t.splitInternal(s, n)
	}
	return "", 0
}

func (t *Tree) splitLeaf(s *pins, n *node) (string, int64) {
	mid := len(n.keys) / 2
	right := t.alloc(s, true)
	right.keys = append([]string(nil), n.keys[mid:]...)
	right.vals = append([]int64(nil), n.vals[mid:]...)
	right.next = n.next
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right.id
	s.MarkDirty(n.id)
	t.nodes++
	t.acct.WriteNode(2)
	return right.keys[0], right.id
}

func (t *Tree) splitInternal(s *pins, n *node) (string, int64) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := t.alloc(s, false)
	right.keys = append([]string(nil), n.keys[mid+1:]...)
	right.children = append([]int64(nil), n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	s.MarkDirty(n.id)
	t.nodes++
	t.acct.WriteNode(2)
	return sep, right.id
}

// --- delete ---------------------------------------------------------------

// Delete removes one entry matching (key, val), returning whether an
// entry was removed. With duplicates, the leftmost match is removed.
func (t *Tree) Delete(key string, val int64) bool {
	s := t.store.Pins()
	defer s.Release()
	root := s.Writable(t.rootID)
	if !t.deleteFrom(&s, root, key, val) {
		return false
	}
	t.size--
	// Collapse a root that lost its last separator.
	if !root.leaf && len(root.keys) == 0 {
		oldID := root.id
		t.rootID = root.children[0]
		s.Drop(oldID)
		t.nodes--
	}
	return true
}

// deleteFrom removes (key, val) from the subtree under n and rebalances
// its children; it reports whether a removal happened. The caller
// handles n's own underflow. n must be pinned in s.
func (t *Tree) deleteFrom(s *pins, n *node, key string, val int64) bool {
	t.acct.ReadNode(1)
	if n.leaf {
		for i := lowerBound(n, key); i < len(n.keys) && n.keys[i] == key; i++ {
			if n.vals[i] == val {
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.vals = append(n.vals[:i], n.vals[i+1:]...)
				s.MarkDirty(n.id)
				t.acct.WriteNode(1)
				return true
			}
		}
		return false
	}
	// Duplicates equal to a separator can live in either adjacent child;
	// try the lower-bound child first, then subsequent children while the
	// separator still equals key.
	ci := lowerBound(n, key)
	for {
		childID := n.children[ci]
		child := s.Writable(childID)
		if t.deleteFrom(s, child, key, val) {
			t.fixChild(s, n, ci)
			return true
		}
		s.Put(childID) // failed probe: release before trying the next child
		if ci >= len(n.keys) || n.keys[ci] != key {
			return false
		}
		ci++
	}
}

// fixChild rebalances n.children[ci] if it underflowed, by borrowing
// from a sibling or merging with one. Sibling inspection is logically
// free: only the three nodes a borrow rewrites are charged.
func (t *Tree) fixChild(s *pins, n *node, ci int) {
	childID := n.children[ci]
	child := s.Writable(childID)
	min := t.minEntries()
	if len(child.keys) >= min {
		s.Put(childID)
		return
	}
	// Try borrowing from the left sibling.
	if ci > 0 {
		leftID := n.children[ci-1]
		left := s.Writable(leftID)
		if len(left.keys) > min {
			if child.leaf {
				lk, lv := left.keys[len(left.keys)-1], left.vals[len(left.vals)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.vals = left.vals[:len(left.vals)-1]
				child.keys = append([]string{lk}, child.keys...)
				child.vals = append([]int64{lv}, child.vals...)
				n.keys[ci-1] = child.keys[0]
			} else {
				// Rotate through the separator.
				child.keys = append([]string{n.keys[ci-1]}, child.keys...)
				n.keys[ci-1] = left.keys[len(left.keys)-1]
				left.keys = left.keys[:len(left.keys)-1]
				child.children = append([]int64{left.children[len(left.children)-1]}, child.children...)
				left.children = left.children[:len(left.children)-1]
			}
			s.MarkDirty(leftID)
			s.MarkDirty(childID)
			s.MarkDirty(n.id)
			t.acct.WriteNode(3)
			return
		}
		s.Put(leftID)
	}
	// Try borrowing from the right sibling.
	if ci < len(n.children)-1 {
		rightID := n.children[ci+1]
		right := s.Writable(rightID)
		if len(right.keys) > min {
			if child.leaf {
				rk, rv := right.keys[0], right.vals[0]
				right.keys = right.keys[1:]
				right.vals = right.vals[1:]
				child.keys = append(child.keys, rk)
				child.vals = append(child.vals, rv)
				n.keys[ci] = right.keys[0]
			} else {
				child.keys = append(child.keys, n.keys[ci])
				n.keys[ci] = right.keys[0]
				right.keys = right.keys[1:]
				child.children = append(child.children, right.children[0])
				right.children = right.children[1:]
			}
			s.MarkDirty(rightID)
			s.MarkDirty(childID)
			s.MarkDirty(n.id)
			t.acct.WriteNode(3)
			return
		}
		s.Put(rightID)
	}
	// Merge with a sibling.
	if ci > 0 {
		t.mergeChildren(s, n, ci-1)
	} else {
		t.mergeChildren(s, n, ci)
	}
}

// mergeChildren merges n.children[i+1] into n.children[i] and removes
// separator n.keys[i].
func (t *Tree) mergeChildren(s *pins, n *node, i int) {
	leftID, rightID := n.children[i], n.children[i+1]
	left, right := s.Writable(leftID), s.Writable(rightID)
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
	s.MarkDirty(leftID)
	s.MarkDirty(n.id)
	s.Drop(rightID)
	t.nodes--
	t.acct.WriteNode(2)
}

// --- validation -----------------------------------------------------------

// Validate checks the structural invariants: key order within and across
// nodes, separator correctness, uniform leaf depth, occupancy bounds for
// non-root nodes, and leaf-chain consistency. It returns the first
// violation found. On a snapshot view it validates the tree as of the
// view's epoch.
func (t *Tree) Validate() error {
	depth := -1
	var prevLeaf *node
	count := 0
	var walk func(n *node, d int, lo, hi string, hasLo, hasHi bool) error
	walk = func(n *node, d int, lo, hi string, hasLo, hasHi bool) error {
		if n.id != t.rootID && len(n.keys) < t.minEntries() {
			return fmt.Errorf("btree: underfull node at depth %d: %d < %d", d, len(n.keys), t.minEntries())
		}
		if len(n.keys) > t.order {
			return fmt.Errorf("btree: overfull node at depth %d: %d > %d", d, len(n.keys), t.order)
		}
		for i := 1; i < len(n.keys); i++ {
			if n.keys[i-1] > n.keys[i] {
				return fmt.Errorf("btree: unsorted keys at depth %d: %q > %q", d, n.keys[i-1], n.keys[i])
			}
		}
		for _, k := range n.keys {
			if hasLo && k < lo {
				return fmt.Errorf("btree: key %q below bound %q", k, lo)
			}
			if hasHi && k > hi {
				return fmt.Errorf("btree: key %q above bound %q", k, hi)
			}
		}
		if n.leaf {
			if len(n.vals) != len(n.keys) {
				return fmt.Errorf("btree: leaf vals/keys mismatch: %d/%d", len(n.vals), len(n.keys))
			}
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("btree: leaves at depths %d and %d", depth, d)
			}
			if prevLeaf != nil && prevLeaf.next != n.id {
				return fmt.Errorf("btree: broken leaf chain")
			}
			prevLeaf = n
			count += len(n.keys)
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: internal children/keys mismatch: %d/%d", len(n.children), len(n.keys))
		}
		for i, c := range n.children {
			clo, chasLo := lo, hasLo
			chi, chasHi := hi, hasHi
			if i > 0 {
				clo, chasLo = n.keys[i-1], true
			}
			if i < len(n.keys) {
				chi, chasHi = n.keys[i], true
			}
			if err := walk(t.peek(c), d+1, clo, chi, chasLo, chasHi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.peek(t.rootID), 0, "", "", false, false); err != nil {
		return err
	}
	if prevLeaf != nil && prevLeaf.next != 0 {
		return fmt.Errorf("btree: leaf chain extends past last leaf")
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries found", t.size, count)
	}
	return nil
}
