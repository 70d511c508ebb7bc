package model

import (
	"strings"
	"testing"
)

func birdsSchema() *Schema {
	return NewSchema("r",
		Column{Name: "id", Kind: KindInt},
		Column{Name: "name", Kind: KindText},
		Column{Name: "family", Kind: KindText},
	)
}

func TestSchemaColIndex(t *testing.T) {
	s := birdsSchema()
	if i, err := s.ColIndex("", "name"); err != nil || i != 1 {
		t.Errorf("ColIndex(name) = %d, %v", i, err)
	}
	if i, err := s.ColIndex("r", "family"); err != nil || i != 2 {
		t.Errorf("ColIndex(r.family) = %d, %v", i, err)
	}
	if i, err := s.ColIndex("R", "FAMILY"); err != nil || i != 2 {
		t.Errorf("case-insensitive ColIndex = %d, %v", i, err)
	}
	if _, err := s.ColIndex("s", "name"); err == nil {
		t.Error("wrong qualifier should fail")
	}
	if _, err := s.ColIndex("", "missing"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSchemaAmbiguity(t *testing.T) {
	joined := birdsSchema().Concat(NewSchema("s", Column{Name: "name", Kind: KindText}))
	if _, err := joined.ColIndex("", "name"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
	if i, err := joined.ColIndex("s", "name"); err != nil || i != 3 {
		t.Errorf("qualified resolution = %d, %v", i, err)
	}
}

func TestSchemaProjectConcatRename(t *testing.T) {
	s := birdsSchema()
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Col(0).Name != "family" || p.Col(1).Name != "id" {
		t.Errorf("Project: %s", p)
	}
	c := s.Concat(NewSchema("s", Column{Name: "z", Kind: KindInt}))
	if c.Len() != 4 || c.Qualifiers[3] != "s" {
		t.Errorf("Concat: %s", c)
	}
	r := s.Rename("v")
	if !r.HasQualifier("v") || r.HasQualifier("r") {
		t.Errorf("Rename: %s", r)
	}
	if s.Qualifiers[0] != "r" {
		t.Error("Rename mutated the receiver")
	}
}

func TestSchemaString(t *testing.T) {
	got := birdsSchema().String()
	if !strings.Contains(got, "r.id INT") || !strings.Contains(got, "r.family TEXT") {
		t.Errorf("String: %q", got)
	}
}

func TestTupleCloneIsDeep(t *testing.T) {
	tu := NewTuple(5, NewInt(1), NewText("a"))
	tu.Summaries = SummarySet{{
		InstanceID: "C1", Type: SummaryClassifier,
		Reps: []Rep{{Label: "x", Count: 1, Elements: []int64{10}}},
	}}
	cl := tu.Clone()
	cl.Values[0] = NewInt(99)
	cl.Summaries[0].Reps[0].Count = 99
	cl.Summaries[0].Reps[0].Elements[0] = 99
	if tu.Values[0].Int != 1 || tu.Summaries[0].Reps[0].Count != 1 || tu.Summaries[0].Reps[0].Elements[0] != 10 {
		t.Errorf("Clone not deep: %v %v", tu.Values, tu.Summaries)
	}
	if got := tu.String(); got != "1|a" {
		t.Errorf("Tuple.String = %q", got)
	}
}
