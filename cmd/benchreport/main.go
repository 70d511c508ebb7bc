// Command benchreport regenerates every table and figure of the paper's
// evaluation (Section 6) at a configurable scale and prints them as
// aligned text tables, one per figure, with shape notes comparing
// against the paper's reported trends.
//
//	benchreport                 # all figures at the default scale
//	benchreport -fig 10         # one figure
//	benchreport -fig 10,17,18   # several figures
//	benchreport -birds 1000 -grid 10,25,50,100,200
//	benchreport -quick          # reduced grid for a fast smoke run
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "comma-separated figures to regenerate (2, 7..20, 22..24); empty = all")
	birds := flag.Int("birds", 0, "Birds-table cardinality (default from scale)")
	grid := flag.String("grid", "", "comma-separated annotations-per-bird grid, e.g. 10,25,50")
	quick := flag.Bool("quick", false, "use the reduced quick scale")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	scale := bench.DefaultScale()
	if *quick {
		scale = bench.QuickScale()
	}
	if *birds > 0 {
		scale.Birds = *birds
	}
	if *grid != "" {
		var g []int
		for _, part := range strings.Split(*grid, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				log.Fatalf("bad -grid element %q", part)
			}
			g = append(g, n)
		}
		scale.AnnGrid = g
	}
	scale.Seed = *seed

	want := map[int]bool{}
	for _, part := range strings.Split(*fig, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			log.Fatalf("bad -fig element %q", part)
		}
		want[n] = true
	}

	h := bench.NewHarness(scale)
	fmt.Printf("InsightNotes+ benchmark report — %d birds, grid %v (annotations/bird), seed %d\n",
		scale.Birds, scale.AnnGrid, scale.Seed)
	fmt.Printf("paper reference scale: 45,000 birds, 450K–9M annotations\n\n")

	type runner struct {
		figs []int
		run  func(*bench.Harness) (*bench.Table, error)
	}
	runners := []runner{
		{[]int{7}, bench.Fig07Storage},
		{[]int{8}, bench.Fig08Bulk},
		{[]int{9}, bench.Fig09Incremental},
		{[]int{10}, bench.Fig10Selection},
		{[]int{11}, bench.Fig11TwoPredicates},
		{[]int{12}, bench.Fig12DenormalizedPropagation},
		{[]int{13}, bench.Fig13BackwardPointers},
		{[]int{14}, bench.Fig14Rules25},
		{[]int{15}, bench.Fig15Rule11},
		{[]int{2, 16}, bench.Fig16CaseStudy},
		{[]int{17}, bench.Fig17Parallel},
		{[]int{18}, bench.Fig18BufferPool},
		{[]int{19}, bench.Fig19FetchPath},
		{[]int{20}, bench.Fig20GroupCommit},
		{[]int{22}, bench.Fig22Ingest},
		{[]int{23}, bench.Fig23ServerQPS},
		{[]int{24}, bench.Fig24Vectorized},
	}

	ran := false
	for _, r := range runners {
		match := len(want) == 0
		for _, f := range r.figs {
			if want[f] {
				match = true
			}
		}
		if !match {
			continue
		}
		ran = true
		start := time.Now()
		tbl, err := r.run(h)
		if err != nil {
			log.Fatalf("figure %v: %v", r.figs, err)
		}
		fmt.Print(tbl.String())
		fmt.Printf("(regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "no such figure: %s (valid: 2, 7..20, 22..24)\n", *fig)
		os.Exit(2)
	}
}
