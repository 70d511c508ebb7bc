package harness

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// MetricDef is a metric as BENCHMARK.json declares it. That file is the
// only place that names the metrics, their units and their bounds: a run
// reads it, and fails if what it measured is not what is declared.
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// ReplayedSpans are the spans that do not come from the served
// execution: each is the op's input run against the layer's public
// function right after the response, placed inside its parent.
var ReplayedSpans = []string{
	"engine.execute", "engine.add_annotation", "sql.parse", "sql.bind",
	"optimizer.cached_plan", "optimizer.cold_plan", "exec.drain", "exec.seqscan",
	"exec.indexscan", "exec.filter", "exec.project", "exec.sort", "exec.join",
	"exec.groupby", "exec.gather", "exec.other", "index.search", "wal.append", "wal.commit_wait",
}

// Metric is one reported value. Samples is set beside percentiles.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// quantile returns the q-quantile of d (nearest rank), in milliseconds.
func quantileMs(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssPeakMB reads VmHWM, the peak resident set of this process.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// durations returns the round trips of the reads or of the writes.
func durations(samples []opSample, write bool) []time.Duration {
	var d []time.Duration
	for _, s := range samples {
		if s.Write == write {
			d = append(d, s.Dur)
		}
	}
	return d
}

// opsBySecond counts the ops that completed in each whole second of a
// pass.
func opsBySecond(r *PassResult) []int {
	by := make([]int, int(r.Wall/time.Second))
	for _, s := range r.Samples {
		if k := int(s.EndNs / int64(time.Second)); k >= 0 && k < len(by) {
			by[k]++
		}
	}
	return by
}
