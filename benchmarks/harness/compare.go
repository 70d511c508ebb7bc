package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// RunSet is a set of runs of one commit, the input of -compare.
type RunSet struct {
	Runs []SetRun `json:"runs"`
}

// SetRun is the end-to-end result of one run of one workload.
type SetRun struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Failed   int               `json:"failed"`
	Metrics  map[string]Metric `json:"metrics"`
}

// Spec is what the harness reads of BENCHMARK.json.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricDef `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// why returns why a workload exists, "" if the spec does not list it.
func (s *Spec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// LoadJSON reads a JSON file into v.
func LoadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// Compare prints one row per workload × end-to-end metric with both
// sets' medians and quartiles, the bound, and a verdict: regressed (the
// new median is worse than the old by more than the bound), unresolved
// (not regressed, but a set's quartile spread is wider than the bound,
// so "unchanged" cannot be told), or unchanged. It returns the number of
// rows that regressed or that a set has no runs for, plus the runs with
// failed ops.
func Compare(out io.Writer, spec *Spec, old, new *RunSet) int {
	values := func(set *RunSet, workload, metric string) []float64 {
		var v []float64
		for _, r := range set.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
				v = append(v, m.Value)
			}
		}
		return v
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tworse by\tbound\tverdict")
	regressed := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(old, w.Name, m.Name), values(new, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t(n=%d)\t(n=%d)\t\t%.2f\tmissing\n", w.Name, m.Name, m.Unit, len(a), len(b), m.Bound)
				regressed++
				continue
			}
			a1, a2, a3 := Quartiles(a)
			b1, b2, b3 := Quartiles(b)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			spread := (a3 - a1) / a2
			if s := (b3 - b1) / b2; s > spread {
				spread = s
			}
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f)", spread)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.3f\t%.2f\t%s\n",
				w.Name, m.Name, m.Unit, a2, a1, a3, len(a), b2, b1, b3, len(b), worse, m.Bound, verdict)
		}
	}
	tw.Flush()
	for _, set := range []*RunSet{old, new} {
		for _, r := range set.Runs {
			if r.Failed > 0 {
				fmt.Fprintf(out, "%s seed %d: %d ops failed\n", r.Workload, r.Seed, r.Failed)
				regressed++
			}
		}
	}
	return regressed
}
