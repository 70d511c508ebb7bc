package model

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/cell"
)

// cellSamples are values of every kind the cell encoding carries.
func cellSamples() ([][]Value, []SummarySet, []*Annotation) {
	rows := [][]Value{
		nil,
		{Null(), NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64)},
		{NewFloat(0.5), NewFloat(math.Inf(-1)), NewFloat(math.NaN()), NewText(""), NewText("héron"), NewBool(true), NewBool(false)},
	}
	sets := []SummarySet{
		nil,
		{
			{ObjID: 7, InstanceID: "ClassBird1", TupleOID: 3, Type: SummaryClassifier, Reps: []Rep{
				{Label: "Disease", Count: 2, Elements: []int64{10, 12}},
				{Label: "Other", Count: 1, Elements: []int64{math.MaxInt64}},
			}},
			{InstanceID: "TextSummary1", TupleOID: 3, Type: SummarySnippet, Reps: []Rep{{Text: "a snippet", RepAnnID: 12, Elements: []int64{12}}}},
			{InstanceID: "ClusterBird1", Type: SummaryCluster, Reps: []Rep{{Text: "rep", Count: 3, RepAnnID: -4, Elements: []int64{5, -4, 9}}}},
		},
	}
	anns := []*Annotation{
		{ID: 1, Text: "molting early", TupleOID: 3, Author: "u", Seq: 1},
		{ID: 2, Text: "", TupleOID: -1, Columns: []string{"wingspan_cm", "status"}, Seq: 9},
	}
	return rows, sets, anns
}

// TestCellRoundTrip: every sample decodes back to itself and re-encodes
// to the same bytes; a NaN keeps its bits.
func TestCellRoundTrip(t *testing.T) {
	rows, sets, anns := cellSamples()
	for _, row := range rows {
		b := AppendRow(nil, row)
		got, err := DecodeRow(b)
		if err != nil || len(got) != len(row) || !bytes.Equal(AppendRow(nil, got), b) {
			t.Fatalf("row %v: decoded %v, %v", row, got, err)
		}
		for i := range row {
			if got[i] != row[i] && !(math.IsNaN(row[i].Float) && math.IsNaN(got[i].Float)) {
				t.Fatalf("row %v: value %d decoded as %v", row, i, got[i])
			}
		}
	}
	for _, set := range sets {
		b := AppendSummarySet(nil, set)
		got, err := DecodeSummarySet(b)
		if err != nil || !got.Equal(set) || !bytes.Equal(AppendSummarySet(nil, got), b) {
			t.Fatalf("set %v: decoded %v, %v", set, got, err)
		}
		for i := range set {
			if got[i].ObjID != set[i].ObjID || got[i].TupleOID != set[i].TupleOID || got[i].Reps[0].RepAnnID != set[i].Reps[0].RepAnnID {
				t.Fatalf("set %v: object %d decoded as %+v", set, i, got[i])
			}
		}
	}
	for _, a := range anns {
		b := AppendAnnotation(nil, a)
		got, err := DecodeAnnotation(b)
		if err != nil || got.String() != a.String() || got.Author != a.Author || got.Seq != a.Seq {
			t.Fatalf("annotation %v: decoded %v, %v", a, got, err)
		}
	}
	// A decoded cell shares no bytes with the image it came from.
	b := AppendRow(nil, []Value{NewText("kept")})
	got, _ := DecodeRow(b)
	for i := range b {
		b[i] = 0xFF
	}
	if got[0].Text != "kept" {
		t.Fatalf("decoded text changed with its image: %q", got[0].Text)
	}
}

// FuzzCellDecode feeds arbitrary bytes to each cell decoder: each returns
// a *cell.Error or a value that re-encodes to exactly the input.
func FuzzCellDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		reencodes(t, "row", b, DecodeRow, AppendRow)
		reencodes(t, "summary set", b, DecodeSummarySet, AppendSummarySet)
		reencodes(t, "annotation", b, DecodeAnnotation, AppendAnnotation)
	})
}

func reencodes[T any](t *testing.T, what string, b []byte, decode func([]byte) (T, error), append func([]byte, T) []byte) {
	v, err := decode(b)
	if err != nil {
		if ce := (*cell.Error)(nil); !errors.As(err, &ce) {
			t.Fatalf("%s: untyped error %T: %v", what, err, err)
		}
		return
	}
	if got := append(nil, v); !bytes.Equal(got, b) {
		t.Fatalf("%s re-encodes differently:\n got %x\nwant %x", what, got, b)
	}
}
