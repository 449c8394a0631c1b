// Command rffperf is the repository's benchmark. One invocation runs one
// workload at one seed for a fixed time, checks that the fuzzer's outputs
// are correct, and prints every metric by name and unit:
//
//	rffperf --workload deep --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run (nil
// telemetry sink, no timers); with --trace 1 it drives the same work
// through the public calls of each layer and prints the per-layer
// metrics. The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// records the host (NumCPU, GOMAXPROCS, Go version) and sample counts.
// README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports: its operations (trials or
// campaigns) attempted and failed, the gate problems it found, its
// metrics, and informational notes for the host line.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	notes     map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), notes: make(map[string]any)}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// problem records a failed correctness check.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: an untraced run producing the
// end-to-end metrics and a traced run producing the per-layer metrics.
type workload struct {
	run    func(cfg config) *outcome
	traced func(cfg config) *outcome
}

var workloads = map[string]workload{
	"deep":    {run: runDeep, traced: traceDeep},
	"wide":    {run: runWide, traced: traceWide},
	"bughunt": {run: runBughunt, traced: traceBughunt},
	"panel":   {run: runPanel, traced: tracePanel},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rffperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are derived from")
	seconds := fs.Float64("seconds", 20, "measured run length in seconds")
	trace := fs.Int("trace", 0, "0 = untraced end-to-end run, 1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "rffperf: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "rffperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// No workload drives more threads than the host has CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	var o *outcome
	if cfg.trace {
		o = w.traced(cfg)
	} else {
		o = w.run(cfg)
	}
	finishMetrics(o, cfg.trace)
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "rffperf: check failed:", p)
	}
	info := map[string]any{
		"workload":   *name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      *trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"problems":   len(o.problems),
	}
	for k, v := range o.notes {
		info[k] = v
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, o.metrics}
	for _, line := range []any{info, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "rffperf:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// numThreads is the number of threads a workload may drive: GOMAXPROCS,
// which run caps at NumCPU.
func numThreads() int { return runtime.GOMAXPROCS(0) }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
