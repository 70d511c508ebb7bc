package model

import "sort"

// This file is the test oracle for SetAccumulator: the pairwise, pure
// merge that production used before the accumulator (it re-clones the
// whole left side on every call, so folding n sets with it is
// quadratic). It is kept verbatim so the property tests in
// merge_property_test.go can hold the accumulator to it.

// oracleMergeSets merges the summary sets of two joined tuples. Objects of the
// same instance are combined per their type's merge procedure; objects
// with no counterpart propagate unchanged (cloned, so the output never
// aliases the inputs).
func oracleMergeSets(a, b SummarySet, lookup AnnotationLookup) SummarySet {
	if a == nil && b == nil {
		return nil
	}
	out := make(SummarySet, 0, len(a)+len(b))
	matched := make([]bool, len(b))
	for _, oa := range a {
		var partner *SummaryObject
		for j, ob := range b {
			if !matched[j] && oa.InstanceID == ob.InstanceID && oa.Type == ob.Type {
				matched[j] = true
				partner = ob
				break
			}
		}
		if partner == nil {
			out = append(out, oa.Clone())
			continue
		}
		out = append(out, oracleMergeObjects(oa, partner, lookup))
	}
	for j, ob := range b {
		if !matched[j] {
			out = append(out, ob.Clone())
		}
	}
	return out
}

// oracleMergeObjects combines two summary objects of the same instance and
// type. The result carries a's identity fields.
func oracleMergeObjects(a, b *SummaryObject, lookup AnnotationLookup) *SummaryObject {
	out := &SummaryObject{
		ObjID:      a.ObjID,
		InstanceID: a.InstanceID,
		TupleOID:   a.TupleOID,
		Type:       a.Type,
	}
	switch a.Type {
	case SummaryClassifier:
		out.Reps = oracleMergeClassifierReps(a.Reps, b.Reps)
	case SummarySnippet:
		out.Reps = oracleMergeSnippetReps(a.Reps, b.Reps)
	case SummaryCluster:
		out.Reps = oracleMergeClusterReps(a.Reps, b.Reps, lookup)
	}
	return out
}

// oracleMergeClassifierReps unions the element sets label by label. Labels
// present on only one side propagate as-is; label order follows a's
// order with b's extra labels appended, preserving the instance's
// pre-defined label ordering.
func oracleMergeClassifierReps(a, b []Rep) []Rep {
	out := make([]Rep, 0, len(a))
	seen := make(map[string]bool, len(a))
	for _, ra := range a {
		seen[ra.Label] = true
		union := ra.Elements
		for _, rb := range b {
			if rb.Label == ra.Label {
				union = oracleUnionIDs(ra.Elements, rb.Elements)
				break
			}
		}
		out = append(out, Rep{Label: ra.Label, Count: len(union), Elements: append([]int64(nil), union...)})
	}
	for _, rb := range b {
		if !seen[rb.Label] {
			out = append(out, Rep{Label: rb.Label, Count: len(rb.Elements), Elements: append([]int64(nil), rb.Elements...)})
		}
	}
	return out
}

// oracleMergeSnippetReps unions snippets, dropping duplicates that summarize
// the same raw annotation (the shared-annotation case).
func oracleMergeSnippetReps(a, b []Rep) []Rep {
	out := make([]Rep, 0, len(a)+len(b))
	seen := make(map[int64]bool, len(a))
	for _, r := range a {
		seen[r.RepAnnID] = true
		out = append(out, r.CloneRep())
	}
	for _, r := range b {
		if r.RepAnnID != 0 && seen[r.RepAnnID] {
			continue
		}
		out = append(out, r.CloneRep())
	}
	return out
}

// oracleMergeClusterReps combines overlapping groups from both sides —
// groups sharing at least one contributing annotation — transitively,
// while non-overlapping groups propagate separately (the paper's A1+B5
// combine, A5 and B7 propagate example). A union-find over the groups,
// driven by shared element IDs, computes the combined components.
func oracleMergeClusterReps(a, b []Rep, lookup AnnotationLookup) []Rep {
	groups := make([]Rep, 0, len(a)+len(b))
	groups = append(groups, a...)
	groups = append(groups, b...)
	if len(groups) == 0 {
		return nil
	}

	parent := make([]int, len(groups))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) {
		rx, ry := find(x), find(y)
		if rx != ry {
			if rx > ry {
				rx, ry = ry, rx
			}
			parent[ry] = rx // keep the smallest index as root for determinism
		}
	}

	owner := make(map[int64]int) // element ID -> first group index seen
	for gi, g := range groups {
		for _, id := range g.Elements {
			if prev, ok := owner[id]; ok {
				union(prev, gi)
			} else {
				owner[id] = gi
			}
		}
	}

	merged := make(map[int][]int) // root -> member group indexes
	var roots []int
	for gi := range groups {
		r := find(gi)
		if _, ok := merged[r]; !ok {
			roots = append(roots, r)
		}
		merged[r] = append(merged[r], gi)
	}
	sort.Ints(roots)

	out := make([]Rep, 0, len(roots))
	for _, r := range roots {
		members := merged[r]
		if len(members) == 1 {
			out = append(out, groups[members[0]].CloneRep())
			continue
		}
		var elems []int64
		for _, gi := range members {
			elems = oracleUnionIDs(elems, groups[gi].Elements)
		}
		// The combined group keeps the representative of its largest
		// constituent (ties: lowest group index), which the element union
		// is guaranteed to contain.
		best := members[0]
		for _, gi := range members[1:] {
			if groups[gi].Count > groups[best].Count {
				best = gi
			}
		}
		rep := Rep{
			Count:    len(elems),
			Elements: elems,
			RepAnnID: groups[best].RepAnnID,
			Text:     groups[best].Text,
		}
		if rep.RepAnnID == 0 && len(elems) > 0 {
			rep.RepAnnID = elems[0]
			if lookup != nil {
				if ann, ok := lookup(elems[0]); ok {
					rep.Text = ann.Text
				}
			}
		}
		out = append(out, rep)
	}
	return out
}

// oracleUnionIDs returns the sorted union of two sorted ID slices. Inputs may
// be unsorted; the result is always sorted and duplicate-free.
func oracleUnionIDs(a, b []int64) []int64 {
	set := make(map[int64]bool, len(a)+len(b))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		set[id] = true
	}
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
