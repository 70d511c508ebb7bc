package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/pager"
)

func classifierObj(oid int64, counts map[string]int) *model.SummaryObject {
	o := &model.SummaryObject{InstanceID: "ClassBird1", TupleOID: oid, Type: model.SummaryClassifier}
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		o.Reps = append(o.Reps, model.Rep{Label: l, Count: counts[l]})
	}
	return o
}

func TestItemizeKeyFormat(t *testing.T) {
	if got := ItemizeKey("Disease", 8, 3); got != "disease:008" {
		t.Errorf("ItemizeKey = %q", got)
	}
	if got := ItemizeKey("Behavior", 33, 3); got != "behavior:033" {
		t.Errorf("ItemizeKey = %q", got)
	}
	if got := ItemizeKey("x", 1234, 4); got != "x:1234" {
		t.Errorf("ItemizeKey = %q", got)
	}
}

// Property P5: itemized-key string order equals numeric count order for
// a fixed label.
func TestItemizeKeyOrderProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		ka := ItemizeKey("disease", int(a)%1000, 3)
		kb := ItemizeKey("disease", int(b)%1000, 3)
		switch {
		case int(a)%1000 < int(b)%1000:
			return ka < kb
		case int(a)%1000 > int(b)%1000:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	label, cnt := parseKey(ItemizeKey("Anatomy", 25, 3))
	if label != "anatomy" || cnt != 25 {
		t.Errorf("parseKey = %q, %d", label, cnt)
	}
	label, cnt = parseKey("nocolon")
	if label != "nocolon" || cnt != 0 {
		t.Errorf("parseKey degenerate = %q, %d", label, cnt)
	}
}

func TestCmpOpString(t *testing.T) {
	ops := map[CmpOp]string{OpEq: "=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q", op, op.String())
		}
	}
}

func TestIndexAndSearch(t *testing.T) {
	x := NewSummaryBTree(nil, "ClassBird1")
	refs := map[int64]heap.RID{}
	for i := int64(1); i <= 100; i++ {
		refs[i] = heap.RID{Page: int32(i / 10), Slot: int32(i % 10)}
		obj := classifierObj(i, map[string]int{
			"Disease": int(i % 10), "Anatomy": int(i % 7), "Other": 1,
		})
		if err := x.IndexObject(obj, refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if x.Len() != 300 { // 100 objects × 3 labels
		t.Errorf("Len = %d", x.Len())
	}

	// Equality: disease == 5 matches OIDs with i%10 == 5.
	got := x.Search("Disease", OpEq, 5)
	if len(got) != 10 {
		t.Errorf("eq search found %d, want 10", len(got))
	}
	for _, rid := range got {
		oid := int64(rid.Page)*10 + int64(rid.Slot)
		if oid%10 != 5 {
			t.Errorf("false positive oid %d", oid)
		}
	}

	// Range operators.
	for _, c := range []struct {
		op   CmpOp
		k    int
		want func(v int) bool
	}{
		{OpGt, 7, func(v int) bool { return v > 7 }},
		{OpGe, 7, func(v int) bool { return v >= 7 }},
		{OpLt, 2, func(v int) bool { return v < 2 }},
		{OpLe, 2, func(v int) bool { return v <= 2 }},
	} {
		n := 0
		for i := int64(1); i <= 100; i++ {
			if c.want(int(i % 10)) {
				n++
			}
		}
		if got := x.Search("Disease", c.op, c.k); len(got) != n {
			t.Errorf("Search(Disease %v %d) = %d, want %d", c.op, c.k, len(got), n)
		}
	}

	// Results arrive in ascending count order.
	var counts []int
	for _, rid := range x.Search("Disease", OpGe, 0) {
		counts = append(counts, int(rid.Page*10+rid.Slot)%10)
	}
	if !sort.IntsAreSorted(counts) {
		t.Error("Disease >= 0 not in count order")
	}
	if len(counts) != 100 {
		t.Errorf("Disease >= 0 visited %d", len(counts))
	}
}

func TestIndexRejectsNonClassifier(t *testing.T) {
	x := NewSummaryBTree(nil, "T")
	err := x.IndexObject(&model.SummaryObject{Type: model.SummarySnippet}, heap.RID{})
	if err == nil {
		t.Error("snippet object must be rejected")
	}
}

func TestUpdateLabelReKeysSingleLabel(t *testing.T) {
	x := NewSummaryBTree(nil, "C")
	ref := heap.RID{Page: 1, Slot: 2}
	x.IndexObject(classifierObj(1, map[string]int{"Disease": 8, "Anatomy": 25}), ref)
	// The "new disease annotation" path: 8 -> 9.
	x.UpdateLabel("Disease", 8, 9, ref)
	if len(x.Search("Disease", OpEq, 8)) != 0 {
		t.Error("old key survived")
	}
	if len(x.Search("Disease", OpEq, 9)) != 1 {
		t.Error("new key missing")
	}
	if len(x.Search("Anatomy", OpEq, 25)) != 1 {
		t.Error("untouched label affected")
	}
	if x.Len() != 2 {
		t.Errorf("Len = %d", x.Len())
	}
}

func TestRemoveObject(t *testing.T) {
	x := NewSummaryBTree(nil, "C")
	ref := heap.RID{Page: 0, Slot: 1}
	obj := classifierObj(1, map[string]int{"Disease": 3, "Other": 0})
	x.IndexObject(obj, ref)
	x.RemoveObject(obj, ref)
	if x.Len() != 0 {
		t.Errorf("Len = %d after remove", x.Len())
	}
}

func TestWidthExtensionRebuild(t *testing.T) {
	x := NewSummaryBTree(nil, "C")
	ref1 := heap.RID{Page: 0, Slot: 1}
	x.IndexObject(classifierObj(1, map[string]int{"Disease": 998}), ref1)
	if x.Width() != 3 || x.Rebuilds() != 0 {
		t.Fatalf("premature widen: w=%d", x.Width())
	}
	// Exceed 999: automatic width extension and re-build.
	ref2 := heap.RID{Page: 0, Slot: 2}
	x.IndexObject(classifierObj(2, map[string]int{"Disease": 1500}), ref2)
	if x.Width() != 4 || x.Rebuilds() != 1 {
		t.Fatalf("widen failed: w=%d rebuilds=%d", x.Width(), x.Rebuilds())
	}
	// Old and new entries both findable; order preserved across widths.
	if len(x.Search("Disease", OpEq, 998)) != 1 {
		t.Error("pre-widen entry lost")
	}
	if len(x.Search("Disease", OpGt, 1000)) != 1 {
		t.Error("post-widen entry missing")
	}
	if got := x.Search("Disease", OpGe, 0); len(got) != 2 || got[0] != ref1 || got[1] != ref2 {
		t.Errorf("order after widen: %v", got)
	}
	// Jumping several orders of magnitude widens enough in one step.
	x.IndexObject(classifierObj(3, map[string]int{"Disease": 123456}), heap.RID{Page: 0, Slot: 3})
	if x.Width() != 6 {
		t.Errorf("multi-step widen: w=%d", x.Width())
	}
}

func TestSearchBoundsClamp(t *testing.T) {
	for _, c := range []struct {
		op       CmpOp
		constant int
		lo, hi   int
		ok       bool
	}{
		{OpEq, 5, 5, 5, true},
		{OpLt, 5, 0, 4, true},
		{OpLe, 5, 0, 5, true},
		{OpGt, 5, 6, 999, true},
		{OpGe, 5, 5, 999, true},
		{OpGe, -10, 0, 999, true},  // clamped below
		{OpLe, 9999, 0, 999, true}, // clamped above
		{OpLt, 0, 0, -1, false},    // nothing is below 0
		{OpEq, -1, 0, -1, false},
		{OpEq, 1000, 1000, 999, false},
		{OpGt, 999, 1000, 999, false},
	} {
		lo, hi, ok := c.op.Range(c.constant, 999)
		if lo != c.lo || hi != c.hi || ok != c.ok {
			t.Errorf("count %v %d: [%d, %d] %v, want [%d, %d] %v", c.op, c.constant, lo, hi, ok, c.lo, c.hi, c.ok)
		}
	}
	x := NewSummaryBTree(nil, "C")
	x.IndexObject(classifierObj(1, map[string]int{"D": 5}), heap.RID{Slot: 1})
	if got := x.Search("D", OpGe, -10); len(got) != 1 {
		t.Errorf("clamped lower bound found %d", len(got))
	}
	if got := x.Search("D", OpLe, 9999); len(got) != 1 {
		t.Errorf("clamped upper bound found %d", len(got))
	}
	if got := x.Search("D", OpGt, 9999); got != nil {
		t.Errorf("empty range above the width = %v", got)
	}
	// OpLt 0 means nothing can match.
	if got := x.Search("D", OpLt, 0); got != nil {
		t.Errorf("count < 0 matched %v", got)
	}
}

// holds evaluates "v <op> c" directly, the oracle of the index tests.
func holds(op CmpOp, v, c int) bool {
	switch op {
	case OpEq:
		return v == c
	case OpLt:
		return v < c
	case OpLe:
		return v <= c
	case OpGt:
		return v > c
	case OpGe:
		return v >= c
	}
	return false
}

var allOps = []CmpOp{OpEq, OpLt, OpLe, OpGt, OpGe}

func TestProbeCostLogarithmic(t *testing.T) {
	var acct pager.Accountant
	x := NewSummaryBTree(&acct, "C")
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < 5000; i++ {
		x.IndexObject(classifierObj(i, map[string]int{
			"Disease": rng.Intn(200), "Anatomy": rng.Intn(200),
			"Behavior": rng.Intn(200), "Other": rng.Intn(200),
		}), heap.RID{Page: int32(i)})
	}
	acct.Reset()
	x.Search("Disease", OpEq, 57)
	reads := acct.Stats().PageReads
	// Equality probe: O(log_B kN) node visits plus leaf-chain hops for
	// matches (~25 expected at 5000/200).
	if reads > 40 {
		t.Errorf("probe cost %d pages for 20k-entry index", reads)
	}
}

// Property P4: the index agrees with a brute-force scan on random data
// and random comparison predicates, in ascending count order.
func TestIndexMatchesScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	x := NewSummaryBTree(nil, "C")
	counts := map[int64]int{}
	for i := int64(1); i <= 400; i++ {
		c := rng.Intn(50)
		counts[i] = c
		x.IndexObject(classifierObj(i, map[string]int{"Disease": c}), heap.RID{Page: int32(i)})
	}
	for trial := 0; trial < 100; trial++ {
		op, k := allOps[rng.Intn(len(allOps))], rng.Intn(60)-5
		want := map[int64]bool{}
		for oid, c := range counts {
			if holds(op, c, k) {
				want[oid] = true
			}
		}
		got := x.Search("Disease", op, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v %d): index %d vs scan %d", trial, op, k, len(got), len(want))
		}
		for i, rid := range got {
			if !want[int64(rid.Page)] {
				t.Fatalf("trial %d: false positive %d", trial, rid.Page)
			}
			if i > 0 && counts[int64(got[i-1].Page)] > counts[int64(rid.Page)] {
				t.Fatalf("trial %d (%v %d): hit %d out of count order", trial, op, k, i)
			}
		}
		// Descending is the exact reverse of ascending, ties included, and
		// a cursor stopped early has streamed a prefix of its direction.
		desc := pull(x.Cursor("Disease", op, k, true), -1)
		if len(desc) != len(got) {
			t.Fatalf("trial %d (%v %d): descending %d hits, ascending %d", trial, op, k, len(desc), len(got))
		}
		for i := range desc {
			if desc[i] != got[len(got)-1-i] {
				t.Fatalf("trial %d (%v %d): descending hit %d is %v, want %v", trial, op, k, i, desc[i], got[len(got)-1-i])
			}
		}
		stop := rng.Intn(len(got) + 1)
		for _, d := range []struct {
			desc bool
			full []heap.RID
		}{{false, got}, {true, desc}} {
			part := pull(x.Cursor("Disease", op, k, d.desc), stop)
			if len(part) != stop {
				t.Fatalf("trial %d: stopped after %d hits, want %d", trial, len(part), stop)
			}
			for i := range part {
				if part[i] != d.full[i] {
					t.Fatalf("trial %d (desc=%v): hit %d of a stopped walk is %v, want %v", trial, d.desc, i, part[i], d.full[i])
				}
			}
		}
	}
}

// pull drains up to n hits off c (n < 0: all of them) and closes it.
func pull[T any](c Cursor[T], n int) []T {
	defer c.Close()
	var out []T
	for len(out) != n {
		hit, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, hit)
	}
	return out
}

// TestColdProbeFaultLeaksNoPin fails the k-th physical read of a cold
// probe, for every k the probe reaches, on both schemes: the fault lands
// in the cursor's seek, in its leaf walk or (on the baseline) in a
// normalized-row read between two hits. The probe panics with the fault
// and must leave no frame pinned, so the pool can evict every frame once
// the fault clears.
func TestColdProbeFaultLeaksNoPin(t *testing.T) {
	acct := &pager.Accountant{}
	pool := pager.NewBufferPool(acct, pager.MinPoolFrames)
	defer pool.Close()
	x := NewSummaryBTree(acct, "ClassBird1")
	b := NewBaseline(acct, 8, "ClassBird1")
	for oid := int64(1); oid <= 600; oid++ {
		obj := classifierObj(oid, map[string]int{"disease": int(oid % 40), "migration": int(oid % 7)})
		if err := x.IndexObject(obj, heap.RID{Page: int32(oid / 8), Slot: int32(oid % 8)}); err != nil {
			t.Fatal(err)
		}
		if err := b.IndexObject(obj); err != nil {
			t.Fatal(err)
		}
	}
	if h := x.Tree().Height(); h < 2 {
		t.Fatalf("height %d: the seek must pass an inner node", h)
	}
	probes := []struct {
		name string
		run  func()
	}{
		{"summary-btree", func() { x.Search("disease", OpGe, 30) }},
		{"summary-btree desc", func() { pull(x.Cursor("disease", OpGe, 30, true), -1) }},
		{"baseline", func() { b.Search("disease", OpGe, 30) }},
	}
	for _, p := range probes {
		faulted := true
		for k := 1; faulted; k++ {
			pool.EvictAll()
			acct.SetFaultPolicy(&pager.FaultPolicy{EveryKthRead: k})
			faulted = func() (faulted bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(*pager.FaultError); !ok {
							panic(r)
						}
						faulted = true
					}
				}()
				p.run()
				return false
			}()
			acct.SetFaultPolicy(nil)
			pool.EvictAll()
			if res := pool.Stats().Resident; res != 0 {
				t.Fatalf("%s, fault at read %d: %d frames still pinned", p.name, k, res)
			}
		}
	}
}
