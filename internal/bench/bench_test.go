package bench

import (
	"strings"
	"testing"
	"time"
)

func TestScaleDefaults(t *testing.T) {
	d := DefaultScale()
	if d.Birds <= 0 || len(d.AnnGrid) == 0 {
		t.Errorf("DefaultScale: %+v", d)
	}
	q := QuickScale()
	if q.Birds >= d.Birds {
		t.Error("quick scale should be smaller")
	}
	g := Scale{AnnGrid: []int{50, 10, 25}}.SortedGrid()
	if g[0] != 10 || g[2] != 50 {
		t.Errorf("SortedGrid: %v", g)
	}
}

func TestPaperAnnotationsLabels(t *testing.T) {
	s := DefaultScale()
	if got := s.PaperAnnotations(10); got != "450K" {
		t.Errorf("PaperAnnotations(10) = %q", got)
	}
	if got := s.PaperAnnotations(200); got != "9M" {
		t.Errorf("PaperAnnotations(200) = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Figure: "Figure X", Title: "demo", Headers: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("note %d", 7)
	out := tbl.String()
	for _, want := range []string{"Figure X — demo", "a    bb", "333", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.50" {
		t.Errorf("ms: %q", ms(1500*time.Microsecond))
	}
	if kb(2048) != "2" {
		t.Errorf("kb: %q", kb(2048))
	}
	if ratio(10*time.Millisecond, 2*time.Millisecond) != "5.0x" {
		t.Errorf("ratio: %q", ratio(10*time.Millisecond, 2*time.Millisecond))
	}
	if ratio(time.Second, 0) != "inf" {
		t.Error("ratio by zero")
	}
	if pct(30*time.Millisecond, 100*time.Millisecond) != "30%" {
		t.Errorf("pct: %q", pct(30*time.Millisecond, 100*time.Millisecond))
	}
	if pct(time.Second, 0) != "n/a" {
		t.Error("pct by zero")
	}
}

func TestTimeHelpers(t *testing.T) {
	d, err := timeIt(func() error { return nil })
	if err != nil || d < 0 {
		t.Errorf("timeIt: %v %v", d, err)
	}
	calls := 0
	_, err = timeBest(3, func() error { calls++; return nil })
	if err != nil || calls != 3 {
		t.Errorf("timeBest calls = %d, err %v", calls, err)
	}
}

// smokeElsewhere names the registry entries TestAllFiguresSmoke leaves
// to their own gate: their workloads are fixed-size, so a tiny harness
// does not make them cheap, or they have a smoke test of their own.
var smokeElsewhere = map[string]string{
	"Fig19": "make bench-smoke (a fixed 720-bird table)",
	"Fig22": "make bench-smoke (a fixed 3,072-annotation stream)",
	"Fig23": "TestFig23Smoke",
	"Fig24": "TestFig24Smoke",
}

// TestAllFiguresSmoke regenerates every registered figure at a tiny
// scale, in registry order on one harness, and checks that each
// produces rows and that the shape assertions embedded in the runners
// (result-set equality across plans, plan gates) pass.
func TestAllFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration skipped in -short mode")
	}
	h := NewHarness(Scale{Birds: 60, AnnGrid: []int{8, 16}, SynonymsPerBird: 3, Seed: 2})
	for _, f := range Figures {
		t.Run(f.Name(), func(t *testing.T) {
			if where, ok := smokeElsewhere[f.Name()]; ok {
				t.Skipf("covered by %s", where)
			}
			tbl, err := f.Run(h)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Errorf("no rows:\n%s", tbl)
			}
		})
	}
}

func TestPickConstantTargets(t *testing.T) {
	h := NewHarness(Scale{Birds: 80, AnnGrid: []int{10}, SynonymsPerBird: 2, Seed: 3})
	e, err := h.indexed(10)
	if err != nil {
		t.Fatal(err)
	}
	birds, _ := e.ds.DB.Table("Birds")
	ls := birds.Stats("ClassBird1").Label("Disease")
	c := pickConstant(birds, "ClassBird1", "Disease", 0.05)
	if freq := ls.Values()[c]; freq == 0 {
		t.Errorf("pickConstant chose an absent value %d", c)
	}
	g := pickGreaterConstant(birds, "ClassBird1", "Disease", 0.10)
	above := 0
	for v, n := range ls.Values() {
		if v > g {
			above += n
		}
	}
	sel := float64(above) / float64(ls.N())
	if sel > 0.25 {
		t.Errorf("pickGreaterConstant(%d): selectivity %.2f too high", g, sel)
	}
}
