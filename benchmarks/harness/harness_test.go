package harness

import (
	"context"
	"path/filepath"
	"regexp"
	"testing"
)

var specPath = filepath.Join("..", "..", "BENCHMARK.json")

// smoke runs one workload at 200 birds / 200 ops per pass.
func smoke(t *testing.T, workload string, trace bool, clients int, out string) *Result {
	t.Helper()
	res, err := Run(context.Background(), RunConfig{
		Workload: workload, Seed: 1, Trace: trace, Birds: 200, Ops: 200, Clients: clients,
		Spec: specPath, Dir: t.TempDir(), OutDir: out,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %s", workload, res.Failed, res.Attempted, res.FirstError)
	}
	return res
}

// TestDeclaredMetricsAreEmitted checks the command against
// BENCHMARK.json: every workload runs, an untraced run emits every
// end-to-end metric and a traced run every per-layer metric (Run fails
// otherwise), each with a unit and a well-formed name. The traced run's
// trace file is checked as well.
func TestDeclaredMetricsAreEmitted(t *testing.T) {
	var spec Spec
	if err := LoadJSON(specPath, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(Workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range spec.Workloads {
		if WorkloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json lists workload %q, the harness has none", w.Name)
			continue
		}
		out := t.TempDir()
		for _, run := range []struct {
			trace bool
			defs  []MetricDef
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			res := smoke(t, w.Name, run.trace, 0, out)
			for _, d := range run.defs {
				m := res.Metrics[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, m.Unit, d.Unit)
				case !run.trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, d.Name, m.Value)
				}
			}
			if run.trace {
				checkTrace(t, res, out)
			}
		}
	}
}

// checkTrace checks a traced run's trace file: every span lies inside
// its parent, and the self times of an op add up to its http.roundtrip
// within 5%. Both hold by construction of the layout, so it also checks
// what the layout hides: the replayed calls, as measured, must explain a
// share of the handler time that is neither nothing nor more than there
// was, and the ops whose replay had to be clamped to fit are counted.
func checkTrace(t *testing.T, res *Result, out string) {
	t.Helper()
	w := res.Workload
	cov, clamped := res.Metrics["trace.replay_coverage"], res.Metrics["trace.clamped_ops"]
	if cov.Value <= 0 || cov.Value > 1.25 {
		t.Errorf("%s: replayed calls cover %.3f of the handler time", w, cov.Value)
	}
	if clamped.Samples == 0 || int(clamped.Value) > clamped.Samples {
		t.Errorf("%s: %v of %d traced ops clamped", w, clamped.Value, clamped.Samples)
	}
	t.Logf("%s: replay coverage %.3f, %v of %d traced ops clamped", w, cov.Value, clamped.Value, clamped.Samples)
	var tf TraceFile
	if err := LoadJSON(filepath.Join(out, w+".trace.json"), &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: empty trace", w)
	}
	if !nested(tf.Spans) {
		t.Errorf("%s: a span leaves its parent", w)
	}
	byOp := map[int][]Span{}
	for _, sp := range tf.Spans {
		byOp[sp.OpID] = append(byOp[sp.OpID], sp)
	}
	for op, spans := range byOp {
		if spans[0].Name != SpanRoundtrip {
			t.Fatalf("%s op %d: first span is %s", w, op, spans[0].Name)
		}
		rt := float64(spans[0].EndNs - spans[0].StartNs)
		var sum float64
		for _, ns := range selfTimes(spans) {
			sum += float64(ns)
		}
		if sum < 0.95*rt || sum > 1.05*rt {
			t.Errorf("%s op %d: self times sum to %.0f ns, http.roundtrip is %.0f ns", w, op, sum, rt)
		}
	}
}

// selfTimes sums, per span name, duration minus the children's
// durations, for the spans of one op as a trace file holds them. Spans must be in the order place
// emits them: a parent before its children.
func selfTimes(spans []Span) map[string]int64 {
	self := make(map[string]int64, len(spans))
	// The innermost open span with the right name encloses a child; a
	// stack of open spans finds it.
	var stack []int
	child := make([]int64, len(spans))
	for i, sp := range spans {
		for len(stack) > 0 {
			top := spans[stack[len(stack)-1]]
			if top.Name == sp.Parent && top.StartNs <= sp.StartNs && sp.EndNs <= top.EndNs {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			child[stack[len(stack)-1]] += sp.EndNs - sp.StartNs
		}
		stack = append(stack, i)
	}
	for i, sp := range spans {
		self[sp.Name] += sp.EndNs - sp.StartNs - child[i]
	}
	return self
}

// TestOneClientIsDeterministic runs every workload twice with one
// client and the same seed: the op sequence and the page, fsync and
// append counts must repeat exactly.
func TestOneClientIsDeterministic(t *testing.T) {
	for _, w := range Workloads {
		a := smoke(t, w.Name, false, 1, "")
		b := smoke(t, w.Name, false, 1, "")
		if a.OpHash != b.OpHash {
			t.Errorf("%s: op sequence hash %s, then %s", w.Name, a.OpHash, b.OpHash)
		}
		ca, cb := *a.Counters, *b.Counters
		if ca.PageReads != cb.PageReads || ca.PageWrites != cb.PageWrites || ca.NodeReads != cb.NodeReads ||
			ca.PhysReads != cb.PhysReads || ca.Fsyncs != cb.Fsyncs || ca.WALAppends != cb.WALAppends {
			t.Errorf("%s: counters differ between two runs of one seed:\n%+v\n%+v", w.Name, ca, cb)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := Quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("Quartiles = %v, %v, %v; Python gives 3.5, 13.5, 31.0", q1, q2, q3)
	}
}
