// Package bench implements the experiment harness that regenerates
// every table and figure of the paper's evaluation (Section 6) at a
// configurable scale. Each FigNN function runs one experiment, checks
// its shape, and returns a Table shaped like the paper's plot: the same
// series, the same x-axis, laptop-scale absolute numbers. The Figures
// registry lists them once: cmd/benchreport prints them, the root
// package's BenchmarkFigures times them at the quick scale, and
// EXPERIMENTS.md records paper-vs-measured shape.
package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/optimizer"
)

// Scale parameterizes every experiment. The paper runs 45,000 birds and
// 450K–9M annotations (10–200 per tuple); the default scale keeps the
// same annotations-per-tuple axis on fewer birds.
type Scale struct {
	// Birds is the Birds-table cardinality (paper: 45,000).
	Birds int
	// AnnGrid is the x-axis: average annotations per bird. The paper's
	// 450K/1.125M/2.25M/4.5M/9M points correspond to 10/25/50/100/200.
	AnnGrid []int
	// SynonymsPerBird sizes the Synonyms table (paper: ~5).
	SynonymsPerBird int
	// Seed drives the generator.
	Seed int64
}

// DefaultScale is a laptop-scale grid preserving the paper's axes.
func DefaultScale() Scale {
	return Scale{Birds: 400, AnnGrid: []int{10, 25, 50, 100, 200}, SynonymsPerBird: 5, Seed: 1}
}

// QuickScale is a reduced grid for smoke runs and -short tests.
func QuickScale() Scale {
	return Scale{Birds: 120, AnnGrid: []int{10, 25, 50}, SynonymsPerBird: 5, Seed: 1}
}

// PaperAnnotations maps a grid point to the paper's x-axis label.
func (s Scale) PaperAnnotations(avg int) string {
	// The paper's axis assumes 45,000 tuples.
	total := 45000 * avg
	switch {
	case total >= 1000000:
		return fmt.Sprintf("%.3gM", float64(total)/1e6)
	default:
		return fmt.Sprintf("%dK", total/1000)
	}
}

// Table is one regenerated figure.
type Table struct {
	Figure  string // e.g. "Figure 7"
	Title   string
	Headers []string
	Rows    [][]string
	// Notes records shape checks and substitutions.
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.Figure, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// timeIt measures fn once.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// timeBest measures fn reps times and returns the minimum (steadiest
// estimator for short operations).
func timeBest(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		d, err := timeIt(fn)
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}

// arm is one side of a figure's contrast: a query under one option
// set or, when hand is set, a hand-written loop returning its row count.
type arm struct {
	q    string
	opts *optimizer.Options
	hand func() int
}

// timing is one arm's measurement: its best time, its row count, and
// the page reads of one run.
type timing struct {
	best  time.Duration
	rows  int
	reads int64
}

// timeArms runs every arm reps times, alternating the arms so that a
// slow stretch of the machine falls on all of them alike, and keeps each
// arm's best time. The arms are equivalent plans of one query: it fails
// when their row counts differ.
func timeArms(db *engine.DB, reps int, arms ...arm) ([]timing, error) {
	out := make([]timing, len(arms))
	for i := range out {
		out[i].best = math.MaxInt64
	}
	acct := db.Accountant()
	for rep := 0; rep < reps; rep++ {
		for i, a := range arms {
			before, start := acct.Stats(), time.Now()
			rows := 0
			if a.hand != nil {
				rows = a.hand()
			} else {
				res, err := db.Query(a.q, a.opts)
				if err != nil {
					return nil, err
				}
				rows = len(res.Rows)
			}
			out[i] = timing{min(out[i].best, time.Since(start)), rows, acct.Stats().Sub(before).PageReads}
		}
	}
	for _, m := range out {
		if m.rows != out[0].rows {
			counts := make([]int, len(out))
			for i := range out {
				counts[i] = out[i].rows
			}
			return nil, fmt.Errorf("equivalent plans returned different row counts %v", counts)
		}
	}
	return out, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

func kb(bytes int) string { return fmt.Sprintf("%d", bytes/1024) }

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}

func pct(part, whole time.Duration) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}
