package model

import (
	"math/rand"
	"sort"
	"testing"
)

// mergeObjects merges two objects of one instance through the production
// path, as single-object sets.
func mergeObjects(a, b *SummaryObject) *SummaryObject {
	return MergeSets(SummarySet{a}, SummarySet{b}, nil)[0]
}

// makeClassifier builds a classifier object with explicit element IDs per
// label.
func makeClassifier(instance string, labels map[string][]int64, order []string) *SummaryObject {
	o := &SummaryObject{InstanceID: instance, Type: SummaryClassifier}
	for _, l := range order {
		ids := append([]int64(nil), labels[l]...)
		o.Reps = append(o.Reps, Rep{Label: l, Count: len(ids), Elements: ids})
	}
	return o
}

// TestMergeClassifierNoDoubleCounting reproduces the paper's Example 1:
// merging ClassBird2 objects with Comment counts 10 and 17 where five
// Comment annotations are shared must yield 22, not 27.
func TestMergeClassifierNoDoubleCounting(t *testing.T) {
	ids := func(from, to int64) []int64 {
		var out []int64
		for i := from; i <= to; i++ {
			out = append(out, i)
		}
		return out
	}
	order := []string{"Provenance", "Comment", "Question"}
	r := makeClassifier("ClassBird2", map[string][]int64{
		"Provenance": ids(1, 2), "Comment": ids(100, 109), "Question": ids(200, 200),
	}, order)
	// s shares Comment annotations 105..109 with r.
	s := makeClassifier("ClassBird2", map[string][]int64{
		"Provenance": ids(10, 16), "Comment": append(ids(105, 109), ids(300, 311)...), "Question": ids(400, 400),
	}, order)
	m := mergeObjects(r, s)
	if got, _ := m.GetLabelValue("Comment"); got != 22 {
		t.Errorf("Comment = %d, want 22 (10 + 17 - 5 shared)", got)
	}
	if got, _ := m.GetLabelValue("Provenance"); got != 9 {
		t.Errorf("Provenance = %d, want 9", got)
	}
	if got, _ := m.GetLabelValue("Question"); got != 2 {
		t.Errorf("Question = %d, want 2", got)
	}
}

func TestMergeClassifierDisjointLabelsAppend(t *testing.T) {
	a := makeClassifier("C", map[string][]int64{"X": {1, 2}}, []string{"X"})
	b := makeClassifier("C", map[string][]int64{"Y": {3}}, []string{"Y"})
	m := mergeObjects(a, b)
	if m.Size() != 2 {
		t.Fatalf("Size = %d", m.Size())
	}
	if m.Reps[0].Label != "X" || m.Reps[1].Label != "Y" {
		t.Errorf("label order: %v", m.Reps)
	}
}

func TestMergeSnippetsDropSharedAnnotation(t *testing.T) {
	a := &SummaryObject{InstanceID: "T", Type: SummarySnippet, Reps: []Rep{
		{Text: "snip1", RepAnnID: 1, Elements: []int64{1}},
		{Text: "snip2", RepAnnID: 2, Elements: []int64{2}},
	}}
	b := &SummaryObject{InstanceID: "T", Type: SummarySnippet, Reps: []Rep{
		{Text: "snip2", RepAnnID: 2, Elements: []int64{2}},
		{Text: "snip3", RepAnnID: 3, Elements: []int64{3}},
	}}
	m := mergeObjects(a, b)
	if m.Size() != 3 {
		t.Errorf("Size = %d, want 3 (shared annotation 2 not duplicated)", m.Size())
	}
}

// TestMergeClusterOverlapAndPropagation reproduces the paper's example:
// groups represented by A1 and B5 (sharing elements) combine; groups A5
// and B7 propagate separately.
func TestMergeClusterOverlapAndPropagation(t *testing.T) {
	a := &SummaryObject{InstanceID: "SimCluster", Type: SummaryCluster, Reps: []Rep{
		{Text: "A1", RepAnnID: 1, Count: 3, Elements: []int64{1, 2, 3}},
		{Text: "A5", RepAnnID: 5, Count: 2, Elements: []int64{5, 6}},
	}}
	b := &SummaryObject{InstanceID: "SimCluster", Type: SummaryCluster, Reps: []Rep{
		{Text: "B5", RepAnnID: 8, Count: 4, Elements: []int64{2, 3, 8, 9}},
		{Text: "B7", RepAnnID: 20, Count: 2, Elements: []int64{20, 21}},
	}}
	m := mergeObjects(a, b)
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3 groups", m.Size())
	}
	var combined *Rep
	for i := range m.Reps {
		if m.Reps[i].HasElement(1) {
			combined = &m.Reps[i]
		}
	}
	if combined == nil {
		t.Fatal("combined group missing")
	}
	if combined.Count != 5 { // {1,2,3} ∪ {2,3,8,9}
		t.Errorf("combined size = %d, want 5", combined.Count)
	}
	// Representative comes from the larger constituent (B5's group).
	if combined.Text != "B5" {
		t.Errorf("representative = %q, want B5", combined.Text)
	}
	if m.TotalCount() != 5+2+2 {
		t.Errorf("TotalCount = %d", m.TotalCount())
	}
}

func TestMergeClusterTransitiveOverlap(t *testing.T) {
	// g1 overlaps g2 via element 2; g2 overlaps g3 via element 9: all
	// three must combine into one group even though g1∩g3 = ∅.
	a := &SummaryObject{InstanceID: "S", Type: SummaryCluster, Reps: []Rep{
		{Text: "g1", RepAnnID: 1, Count: 2, Elements: []int64{1, 2}},
		{Text: "g3", RepAnnID: 10, Count: 2, Elements: []int64{9, 10}},
	}}
	b := &SummaryObject{InstanceID: "S", Type: SummaryCluster, Reps: []Rep{
		{Text: "g2", RepAnnID: 2, Count: 3, Elements: []int64{2, 8, 9}},
	}}
	m := mergeObjects(a, b)
	if m.Size() != 1 {
		t.Fatalf("Size = %d, want 1 transitively combined group", m.Size())
	}
	if m.Reps[0].Count != 5 { // {1,2} ∪ {9,10} ∪ {2,8,9}
		t.Errorf("Count = %d, want 5", m.Reps[0].Count)
	}
}

func TestMergeSetsUnmatchedPropagate(t *testing.T) {
	rSet := SummarySet{classBird1(), snippetObj(), clusterObj()}
	sCls := makeClassifier("ClassBird1", map[string][]int64{"Behavior": {9000}}, []string{"Behavior"})
	sSet := SummarySet{sCls}
	m := MergeSets(rSet, sSet, nil)
	if m.Size() != 3 {
		t.Fatalf("Size = %d, want 3", m.Size())
	}
	// TextSummary1 and SimCluster had no counterpart: unchanged.
	if !m.Get("TextSummary1").Equal(snippetObj()) {
		t.Error("snippet should propagate unchanged")
	}
	if !m.Get("SimCluster").Equal(clusterObj()) {
		t.Error("cluster should propagate unchanged")
	}
	if got, _ := m.Get("ClassBird1").GetLabelValue("Behavior"); got != 34 {
		t.Errorf("merged Behavior = %d, want 34", got)
	}
	// Inputs untouched.
	if got, _ := rSet.Get("ClassBird1").GetLabelValue("Behavior"); got != 33 {
		t.Error("MergeSets mutated its input")
	}
}

// TestMergeSetsUnmatchedCountsOnlyClassifier: a baseline scan rebuilds
// classifier objects from its normalized table as labels and counts with
// no element lists (index.Baseline.ReconstructObject). Such an object has
// nothing to take a union of; without a partner it must come through a
// merge as it went in, not recounted from its empty element lists.
func TestMergeSetsUnmatchedCountsOnlyClassifier(t *testing.T) {
	counts := &SummaryObject{ObjID: 7, InstanceID: "ClassBird1", TupleOID: 42, Type: SummaryClassifier,
		Reps: []Rep{{Label: "Anatomy", Count: 2}, {Label: "Behavior", Count: 4, Text: "kept", RepAnnID: 9}}}
	other := makeClassifier("ClassBird2", map[string][]int64{"Comment": {1, 2}}, []string{"Comment"})
	for name, m := range map[string]SummarySet{
		"nil partner":      MergeSets(SummarySet{counts}, nil, nil),
		"nil first":        MergeSets(nil, SummarySet{counts}, nil),
		"other instance":   MergeSets(SummarySet{counts}, SummarySet{other}, nil),
		"three-set fold":   MergeSets(MergeSets(SummarySet{other}, SummarySet{counts}, nil), SummarySet{snippetObj()}, nil),
		"partial and rest": mergedPartials(SummarySet{other}, SummarySet{counts}, SummarySet{other}),
	} {
		got := m.Get("ClassBird1")
		if got == nil || dumpObject(got) != dumpObject(counts) {
			t.Errorf("%s: got %v, want the object unchanged:\n%s", name, got, dumpObject(counts))
		}
		if got == counts {
			t.Errorf("%s: the result aliases the input object", name)
		}
	}
}

// mergedPartials accumulates first on its own and rest on its own, then
// merges the two accumulators, as parallel partial aggregation does.
func mergedPartials(first SummarySet, rest ...SummarySet) SummarySet {
	a := accumulate([]SummarySet{first})
	a.Merge(accumulate(rest))
	return a.Result()
}

// TestAccumulatorBagsStayNearTheUnion: annotations shared by many tuples
// are the paper's core case, so a group whose members all carry the same
// annotations must not hold one copy of their IDs per member until
// Result. A label's bag is de-duplicated each time it doubles.
func TestAccumulatorBagsStayNearTheUnion(t *testing.T) {
	var ids []int64
	for i := int64(1); i <= 500; i++ {
		ids = append(ids, i)
	}
	acc := NewSetAccumulator(nil)
	for member := 0; member < 2000; member++ {
		acc.Add(SummarySet{makeClassifier("C", map[string][]int64{"X": ids}, []string{"X"})})
		if n := len(acc.objs); n > 0 && len(acc.objs[0].bags) > 0 {
			if held := len(acc.objs[0].bags[0].Elements); held > 3*len(ids) {
				t.Fatalf("after %d members the bag holds %d IDs for a union of %d", member+1, held, len(ids))
			}
		}
	}
	if got, _ := acc.Result().Get("C").GetLabelValue("X"); got != 500 {
		t.Errorf("X = %d, want 500", got)
	}
	if ids[0] != 1 || ids[499] != 500 {
		t.Error("the accumulator reordered an input's element list")
	}
}

func TestMergeSetsNilHandling(t *testing.T) {
	if MergeSets(nil, nil, nil) != nil {
		t.Error("nil+nil should be nil")
	}
	set := SummarySet{classBird1()}
	if got := MergeSets(set, nil, nil); !got.Equal(set) {
		t.Error("merge with empty side should clone the other side")
	}
}

// randomClassifier builds a classifier with element IDs drawn from a
// small universe so merges overlap frequently.
func randomClassifier(rng *rand.Rand, instance string) *SummaryObject {
	labels := []string{"L0", "L1", "L2"}
	o := &SummaryObject{InstanceID: instance, Type: SummaryClassifier}
	used := map[int64]bool{}
	for _, l := range labels {
		var ids []int64
		for n := rng.Intn(6); n > 0; n-- {
			id := int64(rng.Intn(40))
			if !used[id] { // an annotation belongs to exactly one label
				used[id] = true
				ids = append(ids, id)
			}
		}
		o.Reps = append(o.Reps, Rep{Label: l, Count: len(ids), Elements: ids})
	}
	return o
}

// Property P2 + commutativity: classifier merge never double-counts and
// is commutative in content.
func TestMergeClassifierCommutativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		a, b := randomClassifier(rng, "C"), randomClassifier(rng, "C")
		ab, ba := mergeObjects(a, b), mergeObjects(b, a)
		if !ab.Equal(ba) {
			t.Fatalf("iter %d: merge not commutative:\n%s\n%s", iter, ab, ba)
		}
		for _, r := range ab.Reps {
			if r.Count != len(r.Elements) {
				t.Fatalf("iter %d: double counting: %v", iter, r)
			}
		}
	}
}

// Property: classifier merge is associative in content.
func TestMergeClassifierAssociativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		a, b, c := randomClassifier(rng, "C"), randomClassifier(rng, "C"), randomClassifier(rng, "C")
		l := mergeObjects(mergeObjects(a, b), c)
		r := mergeObjects(a, mergeObjects(b, c))
		if !l.Equal(r) {
			t.Fatalf("iter %d: merge not associative:\n%s\n%s", iter, l, r)
		}
	}
}

// Property: merge is idempotent — merging an object with itself changes
// nothing (every element is shared).
func TestMergeIdempotentProperty(t *testing.T) {
	for _, o := range []*SummaryObject{classBird1(), snippetObj(), clusterObj()} {
		m := mergeObjects(o, o)
		if m.TotalCount() != o.TotalCount() {
			t.Errorf("%s: self-merge changed total %d -> %d", o.InstanceID, o.TotalCount(), m.TotalCount())
		}
	}
}

// Property: cluster merge partitions the element union — every element
// appears in exactly one output group.
func TestMergeClusterPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomCluster := func() *SummaryObject {
		o := &SummaryObject{InstanceID: "S", Type: SummaryCluster}
		used := map[int64]bool{}
		for g := rng.Intn(4) + 1; g > 0; g-- {
			var ids []int64
			for n := rng.Intn(5) + 1; n > 0; n-- {
				id := int64(rng.Intn(30))
				if !used[id] {
					used[id] = true
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				continue
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			o.Reps = append(o.Reps, Rep{Count: len(ids), Elements: ids, RepAnnID: ids[0]})
		}
		return o
	}
	for iter := 0; iter < 300; iter++ {
		a, b := randomCluster(), randomCluster()
		m := mergeObjects(a, b)
		seen := map[int64]int{}
		for _, r := range m.Reps {
			if r.Count != len(r.Elements) {
				t.Fatalf("iter %d: groupSize %d != |elements| %d", iter, r.Count, len(r.Elements))
			}
			if !r.HasElement(r.RepAnnID) {
				t.Fatalf("iter %d: representative %d outside its group", iter, r.RepAnnID)
			}
			for _, id := range r.Elements {
				seen[id]++
			}
		}
		union := map[int64]bool{}
		for _, o := range []*SummaryObject{a, b} {
			for _, id := range o.ElementIDs() {
				union[id] = true
			}
		}
		if len(seen) != len(union) {
			t.Fatalf("iter %d: merged elements %d != union %d", iter, len(seen), len(union))
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("iter %d: element %d in %d groups", iter, id, n)
			}
		}
	}
}
