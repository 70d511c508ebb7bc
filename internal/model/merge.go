package model

import "slices"

// This file implements the merge semantics of summary objects under join,
// grouping, and duplicate elimination (Section 2.2, Example 1). The merge
// must not double-count annotations attached to both inputs: the paper's
// example merges two ClassBird2 objects with Comment counts 10 and 17 into
// 22 (not 27) because five Comment annotations are shared. Element ID sets
// make that exact: counts are always the size of the element union.

// MergeSets merges the summary sets of two joined tuples. Objects of the
// same instance are combined per their type's merge procedure; objects
// with no counterpart propagate unchanged (cloned, so the output never
// aliases the inputs).
func MergeSets(a, b SummarySet, lookup AnnotationLookup) SummarySet {
	acc := NewSetAccumulator(lookup)
	acc.Add(a)
	acc.Add(b)
	return acc.Result()
}

// SetAccumulator folds any number of summary sets into one, in time
// linear in the elements added (plus the sorts that de-duplicate element
// lists). It is the only merge implementation: GROUP BY, DISTINCT and the
// partial/final aggregation of parallel plans feed it member by member,
// and MergeSets is its two-Add form. DESIGN.md §17 has the reasoning.
//
// An object that one Add has reached is kept as it arrived: without a
// partner it propagates unchanged (a baseline scan's counts-only
// classifier keeps its counts). From the second Add on it is raw state
// per (instance, type) that Result finishes:
//
//   - classifier: per label the bag of element IDs added, de-duplicated
//     each time it doubles; a count is the size of the sorted,
//     de-duplicated bag.
//   - snippet: the surviving snippets and the RepAnnIDs seen. A snippet
//     is dropped when its RepAnnID was seen before the Add that carries
//     it (never against its own set; a zero RepAnnID never matches).
//   - cluster: every arriving group and a union-find over them. Groups
//     sharing an element combine transitively; a combined group takes
//     the representative of its largest arriving group (ties: earliest)
//     — a rule of the arrival sequence alone, so any split of it into
//     Merge'd partial accumulators elects the same one.
//
// Objects, labels and cluster components keep first-appearance order,
// and the first object of an instance gives the result its identity
// fields. Added sets are not mutated and must not change while the
// accumulator is in use: its state points into them, and while bags and
// snippets stay near the size of the result, every arriving cluster
// group is kept. A Result that folded two or more sets shares no storage
// with them; the Result of exactly one added set is that set itself.
type SetAccumulator struct {
	lookup AnnotationLookup
	n      int        // sets added
	sole   SummarySet // the set added when n == 1, not folded yet
	nonNil bool       // some folded set was non-nil
	objs   []objAcc
}

// objAcc is the raw state of one output object.
type objAcc struct {
	obj     SummaryObject // the identity fields; Reps unused
	batches int           // Adds that reached this object
	// first is the reps of the only Add so far, as they arrived; the
	// second Add folds them into the state below and clears it.
	first []Rep
	// bags is a classifier's label bags: Elements unsorted, duplicates
	// allowed; Count is the bag's length when last de-duplicated.
	bags []Rep
	// arrived lists a snippet object's survivors or a cluster object's
	// groups in arrival order — pointers into the added sets, since the
	// list of a large group is regrown many times and a Rep is 72 bytes.
	arrived []*Rep
	indexed int                // arrived[:indexed] are in seen, or in owner and parent
	seen    map[int64]struct{} // snippet: RepAnnIDs of earlier Adds
	owner   map[int64]int32    // cluster: element -> first group holding it
	parent  []int32            // cluster: union-find over arrived
}

// NewSetAccumulator returns an empty accumulator. lookup (may be nil)
// gives a combined cluster group's text when no arriving group names one.
func NewSetAccumulator(lookup AnnotationLookup) *SetAccumulator {
	return &SetAccumulator{lookup: lookup}
}

// Add folds one more set into the accumulator.
func (a *SetAccumulator) Add(s SummarySet) {
	if a.n == 0 {
		a.n, a.sole = 1, s
		return
	}
	a.foldSole()
	a.n++
	a.fold(s)
}

// Merge folds in everything o has accumulated, as if o's sets had been
// added to a one by one after a's own. o must not be used afterwards.
func (a *SetAccumulator) Merge(o *SetAccumulator) {
	if o.n <= 1 {
		if o.n == 1 {
			a.Add(o.sole)
		}
		return
	}
	a.foldSole()
	a.n += o.n
	a.nonNil = a.nonNil || o.nonNil
	for _, c := range o.objs {
		reps := c.first
		if c.batches > 1 {
			if reps = c.bags; c.obj.Type != SummaryClassifier {
				reps = derefReps(c.arrived)
			}
		}
		a.slot(&c.obj).add(reps, c.batches)
	}
}

// Result returns the merged set: nil iff every added set was nil.
func (a *SetAccumulator) Result() SummarySet {
	if a.n == 1 {
		return a.sole
	}
	if !a.nonNil {
		return nil
	}
	out := make(SummarySet, 0, len(a.objs))
	for i := range a.objs {
		c := &a.objs[i]
		o := c.obj
		switch {
		case c.batches == 1:
			o.Reps = ownElements(slices.Clone(c.first))
		case o.Type == SummaryClassifier:
			o.Reps = make([]Rep, len(c.bags))
			for k, r := range c.bags {
				ids := slices.Clone(r.Elements)
				slices.Sort(ids)
				ids = slices.Compact(ids)
				o.Reps[k] = Rep{Label: r.Label, Count: len(ids), Elements: ids}
			}
		case o.Type == SummaryCluster:
			o.Reps = c.clusterReps(a.lookup)
		default:
			o.Reps = ownElements(derefReps(c.arrived))
		}
		out = append(out, &o)
	}
	return out
}

func (a *SetAccumulator) foldSole() {
	if a.n == 1 {
		a.fold(a.sole)
	}
}

func (a *SetAccumulator) fold(s SummarySet) {
	a.nonNil = a.nonNil || s != nil
	if a.objs == nil {
		a.objs = make([]objAcc, 0, len(s))
	}
	for _, o := range s {
		a.slot(o).add(o.Reps, 1)
	}
}

// slot returns the accumulated object of o's instance and type (a set
// holds one object per instance), starting it with o's identity if new.
func (a *SetAccumulator) slot(o *SummaryObject) *objAcc {
	for i := range a.objs {
		if c := &a.objs[i]; c.obj.InstanceID == o.InstanceID && c.obj.Type == o.Type {
			return c
		}
	}
	a.objs = append(a.objs, objAcc{obj: SummaryObject{
		ObjID: o.ObjID, InstanceID: o.InstanceID, TupleOID: o.TupleOID, Type: o.Type}})
	return &a.objs[len(a.objs)-1]
}

// add appends reps, which arrived in the given number of Adds; the
// first Add's wait in c.first for a partner.
func (c *objAcc) add(reps []Rep, batches int) {
	if c.batches += batches; c.batches == 1 {
		c.first = reps
		return
	}
	for _, reps := range [2][]Rep{c.first, reps} {
		switch c.obj.Type {
		case SummaryClassifier:
			c.addLabels(reps)
		case SummaryCluster:
			c.addGroups(reps)
		default:
			c.addSnippets(reps)
		}
	}
	c.first = nil
}

// addLabels appends each label's elements to that label's bag. Labels
// keep first-appearance order, preserving the instance's pre-defined
// label ordering. A label's first element list is aliased with its
// capacity clipped, so a bag that has grown owns its storage; one that
// has doubled since it was last de-duplicated is sorted and compacted in
// place — a bag stays within about twice its union, O(log n) an element.
func (c *objAcc) addLabels(reps []Rep) {
	if c.bags == nil {
		c.bags = make([]Rep, 0, len(reps))
	}
	for i, r := range reps {
		// Objects of one instance list their labels in the same order,
		// so position i is almost always the match.
		at := i
		if at >= len(c.bags) || c.bags[at].Label != r.Label {
			at = slices.IndexFunc(c.bags, func(x Rep) bool { return x.Label == r.Label })
		}
		if at < 0 {
			c.bags = append(c.bags, Rep{Label: r.Label, Count: len(r.Elements), Elements: slices.Clip(r.Elements)})
			continue
		}
		bag := &c.bags[at]
		bag.Elements = append(bag.Elements, r.Elements...)
		if len(bag.Elements) > 2*bag.Count {
			slices.Sort(bag.Elements)
			bag.Elements = slices.Compact(bag.Elements)
			bag.Count = len(bag.Elements)
		}
	}
}

// addSnippets appends the snippets whose source annotation was not seen
// before this call (the shared-annotation case drops the rest). One
// call's survivors enter c.seen at the start of the next.
func (c *objAcc) addSnippets(reps []Rep) {
	if len(c.arrived) > c.indexed {
		if c.seen == nil {
			c.seen = make(map[int64]struct{}, len(c.arrived))
		}
		for _, r := range c.arrived[c.indexed:] {
			c.seen[r.RepAnnID] = struct{}{}
		}
		c.indexed = len(c.arrived)
	}
	c.arrived = slices.Grow(c.arrived, len(reps))
	for i := range reps {
		if _, dup := c.seen[reps[i].RepAnnID]; !dup || reps[i].RepAnnID == 0 {
			c.arrived = append(c.arrived, &reps[i])
		}
	}
}

// addGroups records the arriving groups and unions each with every
// earlier group it shares an annotation with (the paper's A1+B5 combine,
// A5 and B7 propagate).
func (c *objAcc) addGroups(reps []Rep) {
	for i := range reps {
		c.arrived = append(c.arrived, &reps[i])
	}
	if c.owner == nil {
		c.owner = make(map[int64]int32)
	}
	for gi := int32(c.indexed); int(gi) < len(c.arrived); gi++ {
		c.parent = append(c.parent, gi)
		for _, id := range c.arrived[gi].Elements {
			prev, ok := c.owner[id]
			if !ok {
				c.owner[id] = gi
				continue
			}
			// The earlier root stays the root, so every component is
			// rooted at its earliest group.
			if rx, ry := c.find(prev), c.find(gi); rx != ry {
				c.parent[max(rx, ry)] = min(rx, ry)
			}
		}
	}
	c.indexed = len(c.arrived)
}

func (c *objAcc) find(x int32) int32 {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// clusterReps finishes the cluster state: one rep per component, in the
// order of each component's earliest group — a lone group as a copy, a
// combined one with the sorted element union, its size and the elected
// representative, element lists carved from one slab.
func (c *objAcc) clusterReps(lookup AnnotationLookup) []Rep {
	groups := c.arrived
	sizes := make([]int, len(groups)) // root group -> elements of its component's groups
	total := 0
	for gi, g := range groups {
		sizes[c.find(int32(gi))] += len(g.Elements)
		total += len(g.Elements)
	}
	slab := make([]int64, 0, total)
	slot := make([]int, len(groups))      // root group -> position in out
	combined := make([]bool, len(groups)) // root group -> took in another group
	out := make([]Rep, 0, len(groups))
	for gi, g := range groups {
		root := c.find(int32(gi))
		if int(root) == gi { // the earliest group of its component: visited first
			slot[gi] = len(out)
			r := *g
			r.Elements = append(slab[len(slab):len(slab):len(slab)+sizes[gi]], g.Elements...)
			slab = slab[:len(slab)+sizes[gi]]
			out = append(out, r)
			continue
		}
		// Until the pass ends r.Count is the size of the component's
		// largest arriving group and r.Elements their concatenation.
		combined[root] = true
		r := &out[slot[root]]
		r.Elements = append(r.Elements, g.Elements...)
		if g.Count > r.Count {
			r.Count, r.RepAnnID, r.Text = g.Count, g.RepAnnID, g.Text
		}
	}
	for root, ok := range combined {
		if !ok {
			continue
		}
		r := &out[slot[root]]
		slices.Sort(r.Elements)
		r.Elements = slices.Clip(slices.Compact(r.Elements))
		r.Count = len(r.Elements)
		if r.RepAnnID == 0 && len(r.Elements) > 0 {
			r.RepAnnID = r.Elements[0]
			if lookup != nil {
				if ann, ok := lookup(r.Elements[0]); ok {
					r.Text = ann.Text
				}
			}
		}
	}
	return out
}

func derefReps(reps []*Rep) []Rep {
	out := make([]Rep, len(reps))
	for i, r := range reps {
		out[i] = *r
	}
	return out
}

// ownElements moves the element lists of reps, a copy the caller owns,
// off the storage they share with the added sets and into one slab.
func ownElements(reps []Rep) []Rep {
	total := 0
	for _, r := range reps {
		total += len(r.Elements)
	}
	slab := make([]int64, 0, total)
	for i := range reps {
		at := len(slab)
		slab = append(slab, reps[i].Elements...)
		reps[i].Elements = slab[at:len(slab):len(slab)]
	}
	return reps
}
