package model

import (
	"strings"
	"testing"
)

// classBird1 builds the paper's Figure 1 classifier object:
// [(Behavior,33),(Disease,8),(Anatomy,25),(Other,16)], with synthetic
// element IDs so that counts equal element-set sizes.
func classBird1() *SummaryObject {
	o := &SummaryObject{ObjID: 1, InstanceID: "ClassBird1", TupleOID: 1, Type: SummaryClassifier}
	next := int64(100)
	for _, lc := range []struct {
		label string
		count int
	}{{"Behavior", 33}, {"Disease", 8}, {"Anatomy", 25}, {"Other", 16}} {
		r := Rep{Label: lc.label, Count: lc.count}
		for i := 0; i < lc.count; i++ {
			r.Elements = append(r.Elements, next)
			next++
		}
		o.Reps = append(o.Reps, r)
	}
	return o
}

func snippetObj() *SummaryObject {
	return &SummaryObject{
		ObjID: 2, InstanceID: "TextSummary1", TupleOID: 1, Type: SummarySnippet,
		Reps: []Rep{
			{Text: "Experiment E measured hormone levels", RepAnnID: 501, Elements: []int64{501}},
			{Text: "Wikipedia article about swan geese", RepAnnID: 502, Elements: []int64{502}},
		},
	}
}

func clusterObj() *SummaryObject {
	return &SummaryObject{
		ObjID: 3, InstanceID: "SimCluster", TupleOID: 1, Type: SummaryCluster,
		Reps: []Rep{
			{Text: "Large one having size", RepAnnID: 601, Count: 3, Elements: []int64{601, 602, 603}},
			{Text: "found eating stonewort", RepAnnID: 610, Count: 2, Elements: []int64{610, 611}},
		},
	}
}

func TestSummaryTypeNames(t *testing.T) {
	for _, c := range []struct {
		ty   SummaryType
		name string
	}{{SummaryCluster, "Cluster"}, {SummaryClassifier, "Classifier"}, {SummarySnippet, "Snippet"}} {
		if c.ty.String() != c.name {
			t.Errorf("%v.String() = %q", c.ty, c.ty.String())
		}
	}
}

func TestObjectSizeAndTotalCount(t *testing.T) {
	c := classBird1()
	if c.Size() != 4 {
		t.Errorf("classifier Size = %d", c.Size())
	}
	if c.TotalCount() != 33+8+25+16 {
		t.Errorf("classifier TotalCount = %d", c.TotalCount())
	}
	s := snippetObj()
	if s.Size() != 2 || s.TotalCount() != 2 {
		t.Errorf("snippet Size/TotalCount = %d/%d", s.Size(), s.TotalCount())
	}
	cl := clusterObj()
	if cl.Size() != 2 || cl.TotalCount() != 5 {
		t.Errorf("cluster Size/TotalCount = %d/%d", cl.Size(), cl.TotalCount())
	}
}

func TestElementIDsSortedDistinct(t *testing.T) {
	o := &SummaryObject{Type: SummaryCluster, Reps: []Rep{
		{Elements: []int64{5, 3}},
		{Elements: []int64{3, 9, 1}},
	}}
	ids := o.ElementIDs()
	want := []int64{1, 3, 5, 9}
	if len(ids) != len(want) {
		t.Fatalf("ElementIDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ElementIDs = %v, want %v", ids, want)
		}
	}
}

func TestRepHasElement(t *testing.T) {
	r := Rep{Elements: []int64{2, 4, 8}}
	for _, id := range []int64{2, 4, 8} {
		if !r.HasElement(id) {
			t.Errorf("HasElement(%d) = false", id)
		}
	}
	for _, id := range []int64{1, 3, 9} {
		if r.HasElement(id) {
			t.Errorf("HasElement(%d) = true", id)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := classBird1()
	b := a.Clone()
	b.Reps[0].Count = 999
	b.Reps[0].Elements[0] = -1
	if a.Reps[0].Count != 33 || a.Reps[0].Elements[0] == -1 {
		t.Error("Clone shares state")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestObjectEqualIgnoresIdentity(t *testing.T) {
	a, b := classBird1(), classBird1()
	b.ObjID, b.TupleOID = 77, 88
	if !a.Equal(b) {
		t.Error("Equal must ignore ObjID/TupleOID")
	}
	b.Reps[1].Count--
	b.Reps[1].Elements = b.Reps[1].Elements[1:]
	if a.Equal(b) {
		t.Error("Equal must see count/element differences")
	}
	if a.Equal(snippetObj()) {
		t.Error("different instance/type must be unequal")
	}
}

func TestObjectString(t *testing.T) {
	got := classBird1().String()
	if !strings.HasPrefix(got, "ClassBird1[") || !strings.Contains(got, "(Disease,8)") {
		t.Errorf("String = %q", got)
	}
	if s := snippetObj().String(); !strings.Contains(s, "\"") {
		t.Errorf("snippet String = %q", s)
	}
}

func TestSummarySetAccessors(t *testing.T) {
	set := SummarySet{classBird1(), snippetObj(), clusterObj()}
	if set.Size() != 3 {
		t.Errorf("Size = %d", set.Size())
	}
	if o := set.Get("classbird1"); o == nil || o.Type != SummaryClassifier {
		t.Error("Get is not case-insensitive or failed")
	}
	if set.Get("nope") != nil {
		t.Error("Get(missing) must be nil")
	}
	if set.At(1) != set[1] || set.At(-1) != nil || set.At(3) != nil {
		t.Error("At bounds handling")
	}
	inst := set.Instances()
	if len(inst) != 3 || inst[0] != "ClassBird1" || inst[1] != "SimCluster" {
		t.Errorf("Instances = %v", inst)
	}
}

func TestSummarySetEqualOrderInsensitive(t *testing.T) {
	a := SummarySet{classBird1(), snippetObj()}
	b := SummarySet{snippetObj(), classBird1()}
	if !a.Equal(b) {
		t.Error("set equality must be order-insensitive")
	}
	if a.Equal(SummarySet{classBird1()}) {
		t.Error("different sizes must be unequal")
	}
	if (SummarySet)(nil).Clone() != nil {
		t.Error("nil set clone must stay nil")
	}
}
