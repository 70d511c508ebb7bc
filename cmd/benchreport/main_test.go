package main

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestFigureNumbersMapToRegistry checks that every figure number -fig
// accepts selects exactly the registry entry that regenerates it, that
// the numbers the usage message lists are exactly the accepted ones,
// and that a retired figure is refused.
func TestFigureNumbersMapToRegistry(t *testing.T) {
	var accepted []string
	for n := 0; n <= 30; n++ {
		figs, err := selectFigures(strconv.Itoa(n))
		if err != nil {
			continue
		}
		accepted = append(accepted, strconv.Itoa(n))
		if len(figs) != 1 || !slices.Contains(figs[0].Nums, n) {
			t.Errorf("-fig %d selects %d entries, want the one registry entry regenerating it", n, len(figs))
		}
	}
	if got, want := validFigures(), strings.Join(accepted, ", "); got != want {
		t.Errorf("usage lists figures %q, -fig accepts %q", got, want)
	}
	for _, retired := range []string{"20", "21", "10,20"} {
		if _, err := selectFigures(retired); err == nil {
			t.Errorf("-fig %s accepted; figures 20 and 21 are retired", retired)
		}
	}
	all, err := selectFigures("")
	if err != nil || len(all) != len(bench.Figures) {
		t.Errorf("an empty -fig selects %d of %d entries (%v)", len(all), len(bench.Figures), err)
	}
}
