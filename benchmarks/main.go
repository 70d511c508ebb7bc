// Command benchmarks is the repo's benchmark: it builds a seeded
// dataset, serves it with internal/server on a loopback TCP listener in
// this process, drives it closed-loop over HTTP, checks every result,
// and prints every metric by name with its unit. BENCHMARK.json at the
// repo root is its contract; README.md in this directory is the ledger.
//
//	bash benchmarks/run.sh --workload summary_lookup --seed 1 --seconds 20 --trace 0
//	bash benchmarks/run.sh -all -runs 5 -set .bench_build/a.json
//	bash benchmarks/run.sh -compare .bench_build/a.json .bench_build/b.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"

	"repro/benchmarks/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: summary_lookup, pool_lookup, analytic_scan or mixed_ingest")
	seed := flag.Int64("seed", 1, "seed of the dataset, the constants and the op sequence")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	birds := flag.Int("birds", harness.DefaultBirds, "birds in the dataset (about 10 annotations each)")
	out := flag.String("out", "", "directory that receives <workload>.json, <workload>.layers.json and <workload>.trace.json")
	all := flag.Bool("all", false, "run every workload, each in a child process: -runs untraced runs with seeds -seed, -seed+1, …, then one traced run")
	runs := flag.Int("runs", 1, "with -all: untraced runs per workload")
	set := flag.String("set", "", "with -all: write the untraced runs to this file, the input of -compare")
	compare := flag.Bool("compare", false, "compare two -set files: -compare old.json new.json; exit 1 if an end-to-end metric regressed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	switch {
	case *compare:
		return compareSets(flag.Args())
	case *all:
		return runAll(*seed, *seconds, *birds, *runs, *out, *set)
	case *workload == "":
		fmt.Fprintln(os.Stderr, "benchmarks: one of -workload, -all or -compare is required")
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	dir := filepath.Join(".bench_build", "scratch", *workload+"-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	res, err := harness.Run(ctx, harness.RunConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		Birds: *birds, Dir: dir, OutDir: *out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
		}
		f.Close()
	}
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult lists every metric by name with its unit, then prints the
// one-line JSON object the contract asks for as the last line.
func printResult(res *harness.Result) {
	fmt.Printf("workload %s seed %d: %d clients, closed loop, %d birds / %d annotations, pool %d of %d pages\n",
		res.Workload, res.Seed, res.Clients, res.Conditions.Birds, res.Conditions.Annotations,
		res.Conditions.BufferPoolPages, res.Conditions.PagesTotal)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if m.Samples > 0 {
			fmt.Printf("  %-38s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Printf("  %-38s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	fmt.Printf("  ops completed in each second of the measured pass: %v\n", res.SliceOps)
	fmt.Printf("  %-38s %14.6f ratio  (%d of %d)\n", "failed_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if res.FirstError != "" {
		fmt.Println("  first error:", res.FirstError)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail to encode
	fmt.Println(string(b))
}

// runAll runs every workload in its own child process, so that
// rss_peak_mb is per workload.
func runAll(seed int64, seconds, birds, runs int, out, setPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	child := func(w string, seed int64, trace int, out string) (*harness.SetRun, error) {
		args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds),
			"--trace", strconv.Itoa(trace), "-birds", strconv.Itoa(birds)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		os.Stdout.Write(stdout)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		r := &harness.SetRun{Workload: w, Seed: seed}
		if err := json.Unmarshal(lines[len(lines)-1], r); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line: %w", w, seed, err)
		}
		return r, nil
	}
	set := harness.RunSet{}
	code := 0
	for _, w := range harness.Workloads {
		for i := 0; i < runs; i++ {
			// Only the first run of a workload writes the result files.
			o := out
			if i > 0 {
				o = ""
			}
			r, err := child(w.Name, seed+int64(i), 0, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmarks:", err)
				code = 1
				continue
			}
			set.Runs = append(set.Runs, *r)
		}
		if _, err := child(w.Name, seed, 1, out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			code = 1
		}
	}
	if setPath != "" {
		b, _ := json.MarshalIndent(set, "", "  ")
		if err := os.WriteFile(setPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			code = 1
		}
	}
	return code
}

func compareSets(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmarks: -compare takes two files: old.json new.json")
		return 2
	}
	var spec harness.Spec
	var old, new harness.RunSet
	for _, f := range []struct {
		path string
		into any
	}{{"BENCHMARK.json", &spec}, {args[0], &old}, {args[1], &new}} {
		if err := harness.LoadJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 2
		}
	}
	if n := harness.Compare(os.Stdout, &spec, &old, &new); n > 0 {
		fmt.Printf("%d rows regressed, missing or with failed ops\n", n)
		return 1
	}
	return 0
}
