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
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "comma-separated figures to regenerate ("+validFigures()+"); empty = all")
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

	figs, err := selectFigures(*fig)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	h := bench.NewHarness(scale)
	fmt.Printf("InsightNotes+ benchmark report — %d birds, grid %v (annotations/bird), seed %d\n",
		scale.Birds, scale.AnnGrid, scale.Seed)
	fmt.Printf("paper reference scale: 45,000 birds, 450K–9M annotations\n\n")
	for _, f := range figs {
		start := time.Now()
		tbl, err := f.Run(h)
		if err != nil {
			log.Fatalf("figure %v: %v", f.Nums, err)
		}
		fmt.Print(tbl.String())
		fmt.Printf("(regenerated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

// selectFigures returns the registry entries a -fig list names, in
// registry order, or every entry for an empty list. A number no entry
// regenerates is an error.
func selectFigures(spec string) ([]bench.Figure, error) {
	if strings.TrimSpace(spec) == "" {
		return bench.Figures, nil
	}
	want := map[int]bool{}
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -fig element %q", part)
		}
		want[n] = true
	}
	var out []bench.Figure
	for _, f := range bench.Figures {
		hit := false
		for _, n := range f.Nums {
			hit = hit || want[n]
			delete(want, n)
		}
		if hit {
			out = append(out, f)
		}
	}
	for n := range want {
		return nil, fmt.Errorf("no such figure: %d (valid: %s)", n, validFigures())
	}
	return out, nil
}

// validFigures lists every figure number the registry regenerates.
func validFigures() string {
	var nums []int
	for _, f := range bench.Figures {
		nums = append(nums, f.Nums...)
	}
	sort.Ints(nums)
	return strings.ReplaceAll(strings.Trim(fmt.Sprint(nums), "[]"), " ", ", ")
}
