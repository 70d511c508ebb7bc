package catalog

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func testCatalog(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New(nil, 8)
	schema := model.NewSchema("",
		model.Column{Name: "name", Kind: model.KindText},
		model.Column{Name: "family", Kind: model.KindText},
	)
	tbl, err := c.CreateTable("Birds", schema)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	return c, tbl
}

func TestCreateAndResolveTables(t *testing.T) {
	c, _ := testCatalog(t)
	if _, err := c.Table("birds"); err != nil {
		t.Errorf("case-insensitive lookup: %v", err)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := c.CreateTable("BIRDS", model.NewSchema("")); err == nil {
		t.Error("duplicate create should fail")
	}
	names := c.TableNames()
	if len(names) != 1 || names[0] != "Birds" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestInsertGetDeleteTuples(t *testing.T) {
	_, tbl := testCatalog(t)
	oid, err := tbl.Insert([]model.Value{model.NewText("Swan Goose"), model.NewText("Anatidae")})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := tbl.Insert([]model.Value{model.NewText("short")}); err == nil {
		t.Error("arity mismatch should fail")
	}
	tu, ok := tbl.Get(oid)
	if !ok || tu.Values[0].Text != "Swan Goose" {
		t.Fatalf("Get: %+v %v", tu, ok)
	}
	rid, ok := tbl.DiskTupleLoc(oid)
	if !ok {
		t.Fatal("DiskTupleLoc failed")
	}
	if tu2, ok := tbl.GetAt(rid); !ok || tu2.OID != oid {
		t.Error("GetAt via heap location failed")
	}
	if !tbl.Delete(oid) || tbl.Delete(oid) {
		t.Error("Delete semantics")
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestColumnStatsMaintained(t *testing.T) {
	_, tbl := testCatalog(t)
	for _, name := range []string{"a", "b", "a"} {
		if _, err := tbl.Insert([]model.Value{model.NewText(name), model.NewText("F")}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.ColStats[0].NumDistinct() != 2 || tbl.ColStats[1].NumDistinct() != 1 {
		t.Errorf("col stats: %d, %d", tbl.ColStats[0].NumDistinct(), tbl.ColStats[1].NumDistinct())
	}
}

func TestSummaryStorageLifecycle(t *testing.T) {
	_, tbl := testCatalog(t)
	oid, _ := tbl.Insert([]model.Value{model.NewText("x"), model.NewText("y")})
	if tbl.GetSummaries(oid) != nil {
		t.Error("fresh tuple should have no summaries")
	}
	set := model.SummarySet{{
		InstanceID: "C1", TupleOID: oid, Type: model.SummaryClassifier,
		Reps: []model.Rep{{Label: "Disease", Count: 1, Elements: []int64{1}}},
	}}
	rid, _ := tbl.DiskTupleLoc(oid)
	tbl.PutSummaries(oid, rid, nil, set)
	tbl.PutSummaries(oid, rid, set, set.Clone())
	if tbl.SummaryStorage.Len() != 1 {
		t.Errorf("%d summary storage rows after two Puts, want 1", tbl.SummaryStorage.Len())
	}
	got := tbl.GetSummaries(oid)
	if got == nil || got.Get("C1") == nil {
		t.Fatal("GetSummaries failed")
	}
	// An object no representative of which holds an annotation is
	// dropped, and a set left empty takes its row with it.
	emptied := got.Clone()
	emptied[0].Reps[0] = model.Rep{Label: "Disease"}
	tbl.PutSummaries(oid, rid, got, emptied)
	if tbl.GetSummaries(oid) != nil || tbl.SummaryStorage.Len() != 0 {
		t.Errorf("emptied object kept: %v", tbl.GetSummaries(oid))
	}
	tbl.PutSummaries(oid, rid, nil, set)
	tbl.Delete(oid)
	if tbl.GetSummaries(oid) != nil {
		t.Error("summaries must vanish with the tuple")
	}
	if tbl.SummaryStorage.Len() != 0 {
		t.Error("summary storage row leaked")
	}
}

// TestSingleValuedLookupsAllocateNothing: resolving an OID through the
// OID index or the summary-storage index allocates nothing, however
// deep the tree: the key is built on the caller's stack, and the tree
// keeps no probe key (a summary fetch pays SummaryLoc once per attached
// set).
func TestSingleValuedLookupsAllocateNothing(t *testing.T) {
	_, tbl := testCatalog(t)
	set := model.SummarySet{{
		InstanceID: "C1", Type: model.SummaryClassifier,
		Reps: []model.Rep{{Label: "Disease", Count: 1, Elements: []int64{1}}},
	}}
	var oids []int64
	for i := 0; i < 300; i++ {
		oid, err := tbl.Insert([]model.Value{model.NewText("x"), model.NewText("y")})
		if err != nil {
			t.Fatal(err)
		}
		rid, _ := tbl.DiskTupleLoc(oid)
		tbl.PutSummaries(oid, rid, nil, set)
		oids = append(oids, oid)
	}
	for _, oid := range []int64{oids[0], oids[150], oids[299]} {
		if _, ok := tbl.SummaryLoc(oid); !ok {
			t.Fatalf("SummaryLoc(%d) missed", oid)
		}
		if n := testing.AllocsPerRun(50, func() { tbl.SummaryLoc(oid) }); n != 0 {
			t.Errorf("SummaryLoc(%d): %.0f allocations, want 0", oid, n)
		}
		if n := testing.AllocsPerRun(50, func() { tbl.DiskTupleLoc(oid) }); n != 0 {
			t.Errorf("DiskTupleLoc(%d): %.0f allocations, want 0", oid, n)
		}
	}
}

func TestInstanceLinking(t *testing.T) {
	c, tbl := testCatalog(t)
	si := &SummaryInstance{Name: "ClassBird1", Type: model.SummaryClassifier,
		Labels: []string{"Disease", "Anatomy", "Behavior", "Other"}}
	if err := c.LinkInstance("Birds", si.Name); err == nil {
		t.Error("link of an undefined instance should fail")
	}
	if err := c.DefineInstance(si, nil); err != nil {
		t.Fatalf("DefineInstance: %v", err)
	}
	if err := c.DefineInstance(&SummaryInstance{Name: "classbird1", Type: model.SummaryCluster}, nil); err == nil {
		t.Error("duplicate definition should fail")
	}
	if c.Instance("CLASSBIRD1") != si {
		t.Error("Instance case-insensitivity")
	}
	if err := c.LinkInstance("Birds", si.Name); err != nil {
		t.Fatalf("LinkInstance: %v", err)
	}
	if err := c.LinkInstance("Birds", si.Name); err == nil {
		t.Error("duplicate link should fail")
	}
	if err := c.LinkInstance("missing", si.Name); err == nil {
		t.Error("link to missing table should fail")
	}
	if !tbl.HasInstance("classbird1") {
		t.Error("HasInstance case-insensitivity")
	}
	if tbl.Instance("nope") != nil {
		t.Error("missing instance should be nil")
	}
	if err := c.UnlinkInstance("Birds", "ClassBird1"); err != nil {
		t.Errorf("UnlinkInstance: %v", err)
	}
	if err := c.UnlinkInstance("Birds", "ClassBird1"); err == nil {
		t.Error("double unlink should fail")
	}
}

func TestInstanceValidate(t *testing.T) {
	cases := []struct {
		si  SummaryInstance
		bad bool
	}{
		{SummaryInstance{Name: "", Type: model.SummaryClassifier, Labels: []string{"A"}}, true},
		{SummaryInstance{Name: "C", Type: model.SummaryClassifier}, true},
		{SummaryInstance{Name: "C", Type: model.SummaryClassifier, Labels: []string{"A", "A"}}, true},
		{SummaryInstance{Name: "C", Type: model.SummaryClassifier, Labels: []string{"A", "B"}}, false},
		{SummaryInstance{Name: "S", Type: model.SummarySnippet, SnippetMinChars: -1}, true},
		{SummaryInstance{Name: "S", Type: model.SummarySnippet}, false},
		{SummaryInstance{Name: "K", Type: model.SummaryCluster}, false},
		{SummaryInstance{Name: "X", Type: model.SummaryType(9)}, true},
	}
	for i, c := range cases {
		err := c.si.Validate()
		if (err != nil) != c.bad {
			t.Errorf("case %d: err=%v bad=%v", i, err, c.bad)
		}
	}
	// Defaults applied by Validate.
	s := SummaryInstance{Name: "S", Type: model.SummarySnippet}
	s.Validate()
	if s.SnippetMaxChars != 400 {
		t.Errorf("snippet default = %d", s.SnippetMaxChars)
	}
	k := SummaryInstance{Name: "K", Type: model.SummaryCluster}
	k.Validate()
	if k.ClusterMaxGroups != 8 {
		t.Errorf("cluster default = %d", k.ClusterMaxGroups)
	}
}

func TestObserveForgetSummaryStats(t *testing.T) {
	c, tbl := testCatalog(t)
	c.DefineInstance(&SummaryInstance{Name: "C1", Type: model.SummaryClassifier,
		Labels: []string{"Disease", "Other"}}, nil)
	c.LinkInstance("Birds", "C1")
	oid, _ := tbl.Insert([]model.Value{model.NewText("x"), model.NewText("y")})
	rid, _ := tbl.DiskTupleLoc(oid)
	set := model.SummarySet{{InstanceID: "C1", TupleOID: oid, Type: model.SummaryClassifier,
		Reps: []model.Rep{
			{Label: "Disease", Count: 8, Elements: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
			{Label: "Other", Count: 2, Elements: []int64{9, 10}},
		}}}
	tbl.PutSummaries(oid, rid, nil, set)
	st := tbl.Stats("C1")
	if st.Label("Disease").Max() != 8 || st.Label("Other").N() != 1 {
		t.Errorf("stats not observed: %s", st)
	}
	if st.AvgObjectSize() <= 0 {
		t.Error("AvgObjectSize not observed")
	}
	tbl.Delete(oid)
	if st.Label("Disease").N() != 0 || st.AvgObjectSize() != 0 {
		t.Errorf("stats not forgotten: %s", st)
	}
}

func TestAnnotationStore(t *testing.T) {
	c, _ := testCatalog(t)
	a1 := c.Anns.Add(10, "first annotation", []string{"name"}, "alice")
	a2 := c.Anns.Add(10, "second annotation", nil, "bob")
	a3 := c.Anns.Add(20, "other tuple", nil, "carol")
	if a1.ID == a2.ID || a2.Seq <= a1.Seq {
		t.Error("IDs/Seqs not monotonic")
	}
	if got, ok := c.Anns.Get(a2.ID); !ok || got.Author != "bob" {
		t.Errorf("Get: %+v %v", got, ok)
	}
	if _, ok := c.Anns.Get(9999); ok {
		t.Error("missing annotation should fail")
	}
	anns := c.Anns.ForTuple(10)
	if len(anns) != 2 {
		t.Fatalf("ForTuple = %d", len(anns))
	}
	lookup := c.Anns.Lookup()
	if got, ok := lookup(a3.ID); !ok || !strings.Contains(got.Text, "other") {
		t.Error("Lookup closure broken")
	}
	if !c.Anns.Delete(a1.ID) || c.Anns.Delete(a1.ID) {
		t.Error("Delete semantics")
	}
	if len(c.Anns.ForTuple(10)) != 1 {
		t.Error("byTuple index not maintained on delete")
	}
	if c.Anns.Len() != 2 {
		t.Errorf("Len = %d", c.Anns.Len())
	}
}

func TestEstimateSizes(t *testing.T) {
	obj := &model.SummaryObject{InstanceID: "C1", Type: model.SummaryClassifier,
		Reps: []model.Rep{{Label: "Disease", Count: 2, Elements: []int64{1, 2}}}}
	s1 := EstimateObjectSize(obj)
	if s1 <= 0 {
		t.Fatalf("size = %d", s1)
	}
	obj2 := obj.Clone()
	obj2.Reps[0].Elements = append(obj2.Reps[0].Elements, 3, 4)
	if EstimateObjectSize(obj2) <= s1 {
		t.Error("more elements should cost more bytes")
	}
	if EstimateSetSize(model.SummarySet{obj, obj2}) != s1+EstimateObjectSize(obj2) {
		t.Error("set size must sum object sizes")
	}
}

// Deleting an annotation must remove EVERY byTuple entry it owns — the
// primary tuple's and one per secondary attachment. A leaked secondary
// entry dangles on a freed heap slot; once the slot is reused it
// resolves to the wrong annotation entirely.
func TestAnnotationDeleteRemovesAttachmentEntries(t *testing.T) {
	c, _ := testCatalog(t)
	a := c.Anns.Add(10, "shared annotation", nil, "alice")
	if !c.Anns.AttachTo(a.ID, 20) {
		t.Fatal("AttachTo failed")
	}
	if got := c.Anns.ForTuple(20); len(got) != 1 {
		t.Fatalf("ForTuple(20) before delete = %d, want 1", len(got))
	}
	if !c.Anns.Delete(a.ID) {
		t.Fatal("Delete failed")
	}
	// The freed heap slot is reused by the next Add; a leaked byTuple
	// entry for tuple 20 would now resolve to the unrelated newcomer.
	b := c.Anns.Add(30, "unrelated annotation", nil, "bob")
	if got := c.Anns.ForTuple(20); len(got) != 0 {
		t.Fatalf("ForTuple(20) after delete = %d entries (leaked attachment resolves to annotation %d)",
			len(got), got[0].ID)
	}
	if got := c.Anns.ForTuple(30); len(got) != 1 || got[0].ID != b.ID {
		t.Fatalf("ForTuple(30) = %v", got)
	}
}

// AttachTo is idempotent: re-attaching to the primary tuple or to an
// already-attached tuple is a no-op, never a duplicate byTuple entry.
func TestAttachToIdempotent(t *testing.T) {
	c, _ := testCatalog(t)
	a := c.Anns.Add(10, "ann", nil, "alice")
	if c.Anns.AttachTo(a.ID, 10) {
		t.Error("re-attach to the primary tuple reported as new")
	}
	if !c.Anns.AttachTo(a.ID, 20) {
		t.Error("first attach not reported as new")
	}
	if c.Anns.AttachTo(a.ID, 20) {
		t.Error("repeated attach reported as new")
	}
	if n := len(c.Anns.ForTuple(20)); n != 1 {
		t.Errorf("ForTuple(20) = %d entries, want 1", n)
	}
	if !c.Anns.IsAttached(a.ID, 10) || !c.Anns.IsAttached(a.ID, 20) || c.Anns.IsAttached(a.ID, 30) {
		t.Error("IsAttached answers wrong")
	}
	if got := c.Anns.Attachments(a.ID); len(got) != 1 || got[0] != 20 {
		t.Errorf("Attachments = %v, want [20]", got)
	}
}
