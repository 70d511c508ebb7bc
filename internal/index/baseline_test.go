package index

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/pager"
)

func TestBaselineIndexAndSearch(t *testing.T) {
	b := NewBaseline(nil, 16, "ClassBird1")
	for i := int64(1); i <= 60; i++ {
		obj := classifierObj(i, map[string]int{"Disease": int(i % 6), "Other": 1})
		if err := b.IndexObject(obj); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 120 {
		t.Errorf("Len = %d", b.Len())
	}
	got := b.Search("Disease", OpEq, 3)
	if len(got) != 10 {
		t.Errorf("eq found %d, want 10", len(got))
	}
	for _, oid := range got {
		if oid%6 != 3 {
			t.Errorf("false positive %d", oid)
		}
	}
	if n := len(b.Search("Disease", OpGe, 4)); n != 20 {
		t.Errorf("ge found %d, want 20", n)
	}
	if n := len(b.Search("Disease", OpLt, 1)); n != 10 {
		t.Errorf("lt found %d, want 10", n)
	}
	if n := len(b.Search("Disease", OpLe, 1)); n != 20 {
		t.Errorf("le found %d, want 20", n)
	}
	if n := len(b.Search("Disease", OpGt, 5)); n != 0 {
		t.Errorf("gt found %d, want 0", n)
	}
	if got := b.Search("Disease", OpLt, 0); got != nil {
		t.Errorf("empty range: %v", got)
	}
	if got := b.Search("Disease", OpGe, -3); len(got) != 60 {
		t.Errorf("clamped lower bound found %d, want 60", len(got))
	}
}

func TestBaselineRejectsNonClassifier(t *testing.T) {
	b := NewBaseline(nil, 16, "T")
	if err := b.IndexObject(&model.SummaryObject{Type: model.SummaryCluster}); err == nil {
		t.Error("cluster object must be rejected")
	}
}

func TestBaselineUpdateLabel(t *testing.T) {
	b := NewBaseline(nil, 16, "C")
	b.IndexObject(classifierObj(7, map[string]int{"Disease": 8, "Anatomy": 2}))
	if !b.UpdateLabel(7, "Disease", 9) {
		t.Fatal("UpdateLabel failed")
	}
	if b.UpdateLabel(7, "Missing", 1) {
		t.Error("updating a missing label should fail")
	}
	if b.UpdateLabel(99, "Disease", 1) {
		t.Error("updating a missing tuple should fail")
	}
	if len(b.Search("Disease", OpEq, 8)) != 0 || len(b.Search("Disease", OpEq, 9)) != 1 {
		t.Error("derived index not re-keyed")
	}
	if len(b.Search("Anatomy", OpEq, 2)) != 1 {
		t.Error("other label affected")
	}
}

func TestBaselineRemoveObject(t *testing.T) {
	b := NewBaseline(nil, 16, "C")
	b.IndexObject(classifierObj(1, map[string]int{"Disease": 3, "Other": 1}))
	b.IndexObject(classifierObj(2, map[string]int{"Disease": 3}))
	b.RemoveObject(1)
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
	got := b.Search("Disease", OpEq, 3)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Search after remove = %v", got)
	}
}

func TestBaselineReconstructObject(t *testing.T) {
	b := NewBaseline(nil, 16, "ClassBird1")
	b.IndexObject(classifierObj(5, map[string]int{"Behavior": 33, "Disease": 8}))
	obj, ok := b.ReconstructObject(5)
	if !ok {
		t.Fatal("ReconstructObject failed")
	}
	if obj.InstanceID != "ClassBird1" || obj.TupleOID != 5 {
		t.Errorf("identity: %+v", obj)
	}
	if v, err := obj.GetLabelValue("Disease"); err != nil || v != 8 {
		t.Errorf("Disease = %d, %v", v, err)
	}
	if v, _ := obj.GetLabelValue("Behavior"); v != 33 {
		t.Errorf("Behavior = %d", v)
	}
	if _, ok := b.ReconstructObject(999); ok {
		t.Error("missing tuple should fail")
	}
}

// The core Figure 7 claim: the baseline scheme's total storage footprint
// (normalized replica + indexes) clearly exceeds the Summary-BTree's
// (index only, no replication).
func TestStorageOverheadBaselineVsSummaryBTree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	b := NewBaseline(nil, 16, "C")
	x := NewSummaryBTree(nil, "C")
	for i := int64(1); i <= 500; i++ {
		counts := map[string]int{
			"Disease": rng.Intn(100), "Anatomy": rng.Intn(100),
			"Behavior": rng.Intn(100), "Other": rng.Intn(100),
		}
		obj := classifierObj(i, counts)
		b.IndexObject(obj)
		x.IndexObject(obj, toHeapRID(i))
	}
	if b.SizeBytes() <= x.SizeBytes() {
		t.Errorf("baseline %d bytes should exceed summary-btree %d bytes",
			b.SizeBytes(), x.SizeBytes())
	}
	// The pure index portions are comparable (the paper: "almost the
	// same"): within 2x of each other.
	bi, xi := b.IndexSizeBytes(), x.SizeBytes()
	if bi > 2*xi || xi > 2*bi {
		t.Errorf("index sizes diverge: baseline %d vs summary-btree %d", bi, xi)
	}
}

func toHeapRID(oid int64) heap.RID { return heap.RID{Page: int32(oid)} }

// The indirection claim behind Figure 10: a baseline probe costs more
// page accesses than a Summary-BTree probe, because of the extra
// normalized-table reads.
func TestBaselineProbePaysIndirection(t *testing.T) {
	var acctB, acctX pager.Accountant
	b := NewBaseline(&acctB, 16, "C")
	x := NewSummaryBTree(&acctX, "C")
	rng := rand.New(rand.NewSource(4))
	for i := int64(1); i <= 2000; i++ {
		obj := classifierObj(i, map[string]int{"Disease": rng.Intn(50)})
		b.IndexObject(obj)
		x.IndexObject(obj, toHeapRID(i))
	}
	acctB.Reset()
	acctX.Reset()
	nb := len(b.Search("Disease", OpEq, 25))
	nx := len(x.Search("Disease", OpEq, 25))
	if nb != nx {
		t.Fatalf("result mismatch: %d vs %d", nb, nx)
	}
	rb, rx := acctB.Stats().PageReads, acctX.Stats().PageReads
	if rb <= rx {
		t.Errorf("baseline reads %d should exceed summary-btree reads %d", rb, rx)
	}
}

// Property: baseline and Summary-BTree agree on every comparison
// predicate, both in ascending count order.
func TestSchemesAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := NewBaseline(nil, 16, "C")
	x := NewSummaryBTree(nil, "C")
	counts := map[string]map[int64]int{"Disease": {}, "Other": {}}
	for i := int64(1); i <= 300; i++ {
		counts["Disease"][i], counts["Other"][i] = rng.Intn(40), rng.Intn(5)
		obj := classifierObj(i, map[string]int{"Disease": counts["Disease"][i], "Other": counts["Other"][i]})
		b.IndexObject(obj)
		x.IndexObject(obj, toHeapRID(i))
	}
	for trial := 0; trial < 60; trial++ {
		op, k := allOps[rng.Intn(len(allOps))], rng.Intn(45)
		label := []string{"Disease", "Other"}[rng.Intn(2)]
		wantOIDs := b.Search(label, op, k)
		gotRIDs := x.Search(label, op, k)
		if len(wantOIDs) != len(gotRIDs) {
			t.Fatalf("trial %d: %d vs %d", trial, len(wantOIDs), len(gotRIDs))
		}
		desc := pull(b.Cursor(label, op, k, true), -1)
		if len(desc) != len(wantOIDs) {
			t.Fatalf("trial %d: descending baseline %d hits, ascending %d", trial, len(desc), len(wantOIDs))
		}
		for i, oid := range desc {
			if want := wantOIDs[len(wantOIDs)-1-i]; oid != want {
				t.Fatalf("trial %d: descending baseline hit %d is %d, want %d", trial, i, oid, want)
			}
		}
		var got []int64
		for i, rid := range gotRIDs {
			got = append(got, int64(rid.Page))
			if count := counts[label][int64(rid.Page)]; count != counts[label][wantOIDs[i]] {
				t.Fatalf("trial %d (%s %v %d): hit %d has count %d in one scheme, %d in the other",
					trial, label, op, k, i, count, counts[label][wantOIDs[i]])
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(wantOIDs, func(i, j int) bool { return wantOIDs[i] < wantOIDs[j] })
		for i := range got {
			if got[i] != wantOIDs[i] {
				t.Fatalf("trial %d: OIDs differ at %d", trial, i)
			}
		}
	}
}
