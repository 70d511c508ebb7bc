package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The property tests hold SetAccumulator to the pairwise oracle
// (merge_oracle_test.go) over random summary sets of all three types.
// The generator keeps the invariants stored summary objects have — one
// object per instance in a set, element lists sorted and duplicate-free
// with Count == len(Elements), cluster groups of one object disjoint —
// except for the counts-only classifier a reconstructing baseline scan
// produces (labels and counts, no element lists), which is usually in
// one set of a case only and so mostly goes unmatched. Otherwise it
// aims for collisions: annotation IDs come from a small
// universe so sets share annotations, snippets repeat a RepAnnID inside
// one set, RepAnnID 0 appears on snippets and cluster groups, label
// subsets and object order vary, and sets are sometimes nil or empty.

const propertyCases = 2500

// dump renders every field of a set; two sets are "byte for byte" equal
// when their dumps are. A nil and an empty slice render alike.
func dump(s SummarySet) string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	b.WriteString("set\n")
	for _, o := range s {
		b.WriteString(dumpObject(o))
	}
	return b.String()
}

func dumpObject(o *SummaryObject) string {
	var b strings.Builder
	fmt.Fprintf(&b, "obj %d %q %d %v\n", o.ObjID, o.InstanceID, o.TupleOID, o.Type)
	for _, r := range o.Reps {
		fmt.Fprintf(&b, "  %q %d %q %d %v\n", r.Label, r.Count, r.Text, r.RepAnnID, r.Elements)
	}
	return b.String()
}

func propertyLookup(id int64) (*Annotation, bool) {
	return &Annotation{ID: id, Text: fmt.Sprintf("ann%d", id)}, true
}

// someIDs draws up to n distinct IDs from [1, universe], sorted.
func someIDs(rng *rand.Rand, n, universe int) []int64 {
	var ids []int64
	for ; n > 0; n-- {
		ids = append(ids, int64(1+rng.Intn(universe)))
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// randomSet builds one summary set; tag makes its texts unique so a test
// can tell which set a surviving snippet or representative came from.
func randomSet(rng *rand.Rand, tag string) SummarySet {
	switch rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return SummarySet{}
	}
	const universe = 30
	var set SummarySet
	ident := func(o *SummaryObject) *SummaryObject {
		o.ObjID, o.TupleOID = int64(rng.Intn(1000)), int64(rng.Intn(1000))
		return o
	}
	for _, inst := range []string{"ClassA", "ClassB"} {
		if rng.Intn(3) == 0 {
			continue
		}
		o := ident(&SummaryObject{InstanceID: inst, Type: SummaryClassifier})
		for _, l := range []string{"L0", "L1", "L2", "L3"} {
			if rng.Intn(4) == 0 {
				continue // a label subset: first-appearance order is exercised
			}
			ids := someIDs(rng, rng.Intn(6), universe)
			o.Reps = append(o.Reps, Rep{Label: l, Count: len(ids), Elements: ids})
		}
		set = append(set, o)
	}
	if rng.Intn(5) == 0 {
		o := ident(&SummaryObject{InstanceID: "Counts", Type: SummaryClassifier})
		for _, l := range []string{"L0", "L1"} {
			o.Reps = append(o.Reps, Rep{Label: l, Count: 1 + rng.Intn(9), Text: tag + "-" + l})
		}
		set = append(set, o)
	}
	if rng.Intn(3) > 0 {
		o := ident(&SummaryObject{InstanceID: "Text", Type: SummarySnippet})
		for i, n := 0, rng.Intn(5); i < n; i++ {
			id := int64(rng.Intn(8)) // 0 = no source annotation; repeats inside the set are wanted
			r := Rep{Text: fmt.Sprintf("%s-snip%d", tag, i), RepAnnID: id}
			if id != 0 {
				r.Elements = []int64{id}
			}
			o.Reps = append(o.Reps, r)
		}
		set = append(set, o)
	}
	if rng.Intn(3) > 0 {
		o := ident(&SummaryObject{InstanceID: "Sim", Type: SummaryCluster})
		pool := someIDs(rng, 2+rng.Intn(10), universe)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for i := 0; len(pool) > 0; i++ {
			n := min(1+rng.Intn(4), len(pool))
			ids := slices.Clone(pool[:n])
			pool = pool[n:]
			slices.Sort(ids)
			r := Rep{Text: fmt.Sprintf("%s-grp%d", tag, i), Count: n, Elements: ids}
			if rng.Intn(5) > 0 {
				r.RepAnnID = ids[rng.Intn(n)]
			}
			o.Reps = append(o.Reps, r)
		}
		set = append(set, o)
	}
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	return set
}

func randomSets(rng *rand.Rand, n int) []SummarySet {
	sets := make([]SummarySet, n)
	for i := range sets {
		sets[i] = randomSet(rng, fmt.Sprintf("s%d", i))
	}
	return sets
}

func accumulate(sets []SummarySet) *SetAccumulator {
	acc := NewSetAccumulator(propertyLookup)
	for _, s := range sets {
		acc.Add(s)
	}
	return acc
}

func oracleFold(sets []SummarySet) SummarySet {
	out := sets[0]
	for _, s := range sets[1:] {
		out = oracleMergeSets(out, s, propertyLookup)
	}
	return out
}

// (a) Two sets: the accumulator is the oracle, byte for byte.
func TestAccumulatorTwoSetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < propertyCases; i++ {
		sets := randomSets(rng, 2)
		before := dump(sets[0]) + dump(sets[1])
		got := MergeSets(sets[0], sets[1], propertyLookup)
		want := oracleMergeSets(sets[0], sets[1], propertyLookup)
		if dump(got) != dump(want) {
			t.Fatalf("case %d:\na = %sb = %sgot  %swant %s", i, dump(sets[0]), dump(sets[1]), dump(got), dump(want))
		}
		// The result owns its storage: scribbling over it leaves the
		// inputs as they were.
		for _, o := range got {
			o.InstanceID = "scribbled"
			for k := range o.Reps {
				o.Reps[k].Text = "scribbled"
				for e := range o.Reps[k].Elements {
					o.Reps[k].Elements[e] = -1
				}
			}
		}
		if after := dump(sets[0]) + dump(sets[1]); after != before {
			t.Fatalf("case %d: the result aliases an input", i)
		}
	}
}

// electRepresentative is the documented rule, computed from the inputs
// alone: of the groups that arrived inside the component, in arrival
// order, the largest wins and ties go to the earliest; a lone group
// propagates as it is.
func electRepresentative(sets []SummarySet, component []int64) (repAnnID int64, text string) {
	var members []Rep
	for _, s := range sets {
		for _, o := range s {
			if o.Type != SummaryCluster {
				continue
			}
			for _, g := range o.Reps {
				if slices.Contains(component, g.Elements[0]) {
					members = append(members, g)
				}
			}
		}
	}
	best := members[0]
	for _, g := range members[1:] {
		if g.Count > best.Count {
			best = g
		}
	}
	if len(members) > 1 && best.RepAnnID == 0 {
		return component[0], fmt.Sprintf("ann%d", component[0])
	}
	return best.RepAnnID, best.Text
}

// (b) n sets: classifier and snippet objects are the oracle's left fold
// byte for byte. Cluster objects have the fold's components, counts and
// order; their representatives follow electRepresentative, which the
// pairwise fold cannot (see TestClusterRepresentativeIndependentOfGrouping).
func TestAccumulatorManySetsMatchOracleFold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	chains := 0
	for i := 0; i < propertyCases; i++ {
		sets := randomSets(rng, 2+rng.Intn(7))
		got, want := accumulate(sets).Result(), oracleFold(sets)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("case %d: got %swant %s", i, dump(got), dump(want))
		}
		for k, o := range got {
			w := want[k]
			if o.Type != SummaryCluster {
				if dumpObject(o) != dumpObject(w) {
					t.Fatalf("case %d object %d:\ngot  %swant %s", i, k, dumpObject(o), dumpObject(w))
				}
				continue
			}
			if o.ObjID != w.ObjID || o.InstanceID != w.InstanceID || o.TupleOID != w.TupleOID || len(o.Reps) != len(w.Reps) {
				t.Fatalf("case %d object %d:\ngot  %swant %s", i, k, dumpObject(o), dumpObject(w))
			}
			for g, r := range o.Reps {
				if r.Count != w.Reps[g].Count || !slices.Equal(r.Elements, w.Reps[g].Elements) {
					t.Fatalf("case %d object %d group %d:\ngot  %swant %s", i, k, g, dumpObject(o), dumpObject(w))
				}
				id, text := electRepresentative(sets, r.Elements)
				if r.RepAnnID != id || r.Text != text {
					t.Fatalf("case %d object %d group %d: representative (%d, %q), want (%d, %q)\n%s",
						i, k, g, r.RepAnnID, r.Text, id, text, dumpObject(o))
				}
				if r.Count >= 6 {
					chains++
				}
			}
		}
	}
	// The universe is small enough that long chains are common; a
	// generator change that loses them should not pass silently.
	if chains < propertyCases/4 {
		t.Errorf("only %d combined groups of six or more elements in %d cases", chains, propertyCases)
	}
}

// (c) Any split of the sets into consecutive runs, each run accumulated
// on its own and the partials merged in order, is the serial
// accumulator — the property parallel partial/final aggregation needs.
func TestAccumulatorSplitsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < propertyCases; i++ {
		sets := randomSets(rng, 1+rng.Intn(8))
		want := dump(accumulate(sets).Result())

		merged := NewSetAccumulator(propertyLookup)
		var cuts []int
		for lo := 0; lo < len(sets); {
			hi := lo + rng.Intn(len(sets)-lo+1) // empty runs included
			cuts = append(cuts, hi)
			part := accumulate(sets[lo:hi])
			if rng.Intn(4) == 0 {
				part.Result() // finishing a partial early must not disturb it
			}
			merged.Merge(part)
			lo = hi
		}
		if got := dump(merged.Result()); got != want {
			t.Fatalf("case %d, runs end at %v of %d sets:\ngot  %swant %s", i, cuts, len(sets), got, want)
		}
		if again := dump(merged.Result()); again != want {
			t.Fatalf("case %d: a second Result differs:\ngot  %swant %s", i, again, want)
		}
	}
}

// TestClusterRepresentativeIndependentOfGrouping is the counterexample
// that showed the pairwise fold is not associative: X and Y combine into
// a group of four that keeps X's representative, which then ties with Z
// and wins by position, while Y and Z first combine into a group of five
// that beats X. The accumulator elects among the groups as they arrived,
// so every grouping of the same sequence keeps Z's.
func TestClusterRepresentativeIndependentOfGrouping(t *testing.T) {
	group := func(text string, ids ...int64) SummarySet {
		return SummarySet{{InstanceID: "Sim", Type: SummaryCluster,
			Reps: []Rep{{Text: text, RepAnnID: ids[0], Count: len(ids), Elements: ids}}}}
	}
	x, y, z := group("X", 1, 2, 3), group("Y", 3, 4), group("Z", 4, 5, 6, 7)
	rep := func(s SummarySet) string {
		if len(s) != 1 || len(s[0].Reps) != 1 || s[0].Reps[0].Count != 7 {
			t.Fatalf("want one combined group of 7, got %s", dump(s))
		}
		return s[0].Reps[0].Text
	}

	if l, r := rep(oracleMergeSets(oracleMergeSets(x, y, nil), z, nil)), rep(oracleMergeSets(x, oracleMergeSets(y, z, nil), nil)); l != "X" || r != "Z" {
		t.Errorf("pairwise fold: (X+Y)+Z keeps %q, X+(Y+Z) keeps %q; the counterexample expects X and Z", l, r)
	}

	acc := func(sets ...SummarySet) *SetAccumulator {
		a := NewSetAccumulator(nil)
		for _, s := range sets {
			a.Add(s)
		}
		return a
	}
	serial := acc(x, y, z)
	left := acc(x, y)
	left.Merge(acc(z))
	right := acc(x)
	right.Merge(acc(y, z))
	for name, a := range map[string]*SetAccumulator{"serial": serial, "(X+Y)+Z": left, "X+(Y+Z)": right} {
		if got := rep(a.Result()); got != "Z" {
			t.Errorf("%s keeps %q, want Z (the largest arriving group)", name, got)
		}
	}
}

// BenchmarkMergeSets compares the two-set merge a join pays per output
// row — the accumulator's two-Add form — with the pairwise oracle it
// replaced, on the fixture sets of summary_test.go shifted to share a
// third of their annotations.
func BenchmarkMergeSets(b *testing.B) {
	a := SummarySet{classBird1(), snippetObj(), clusterObj()}
	other := a.Clone()
	for _, o := range other {
		for k := range o.Reps {
			for e := range o.Reps[k].Elements {
				o.Reps[k].Elements[e] += int64(len(o.Reps[k].Elements)) * 2 / 3
			}
			o.Reps[k].RepAnnID++
		}
	}
	b.Run("accumulator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MergeSets(a, other, nil)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleMergeSets(a, other, nil)
		}
	})
}
