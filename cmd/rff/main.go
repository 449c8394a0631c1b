// Command rff runs the Reads-From Fuzzer (or one of the baseline
// concurrency testing strategies) on a benchmark program.
//
// Usage:
//
//	rff list                                   # list benchmark programs
//	rff tools [-q] [-json]                     # list registered strategy specs
//	rff run -prog CS/reorder_100 [-tools rff] [-budget 2000] [-seed 1] [-trials 1]
//	        [-workers N] [-shards N] [-trial-timeout DUR]
//	        [-budget-policy POLICY] [-budget-epochs N]
//	        [-v] [-minimize] [-races] [-out DIR]
//	        [-metrics out.json] [-events out.jsonl] [-progress 10s]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	rff replay -artifact crashes/crash-000.json [-trace]
//	rff regress -corpus triage-corpus             # replay the regression corpus
//
// Strategies are named by parameterized specs resolved through the
// internal/strategy registry — `-tools pos,pct:7,rff` runs three tools
// in one invocation. See `rff tools` (or the README's tool-spec grammar
// table) for the registered specs: rff, rff:nofb, pos, pct:<depth>,
// random, qlearn[:key=value...], period[:<bound>], genmc.
//
// `rff run` runs every (tool, trial) cell through one campaign matrix.
// -v, -minimize and -out act on each trial that found its bug, for any
// tools and trial count; -races runs the race detector over every
// counted execution of every trial, sharded or not.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"rff/internal/bench"
	budgetpkg "rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/minimize"
	"rff/internal/perf"
	"rff/internal/race"
	"rff/internal/report"
	"rff/internal/strategy"
	"rff/internal/telemetry"
	"rff/internal/triage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList()
	case "tools":
		cmdTools(os.Args[2:])
	case "run":
		os.Exit(cmdRun(os.Args[2:]))
	case "replay":
		cmdReplay(os.Args[2:])
	case "regress":
		cmdRegress(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rff <list|tools|run|replay|regress> [flags]")
	fmt.Fprintln(os.Stderr, "  rff list")
	fmt.Fprintln(os.Stderr, "  rff tools [-q] [-json]")
	fmt.Fprintln(os.Stderr, "  rff run -prog NAME [-tools SPEC[,SPEC...]] [-budget N] [-seed S] [-trials K] [-workers N] [-shards N] [-trial-timeout DUR] [-budget-policy POLICY] [-budget-epochs N] [-v] [-minimize] [-races] [-out DIR] [-metrics FILE] [-events FILE] [-progress DUR]")
	fmt.Fprintln(os.Stderr, "  rff replay -artifact FILE [-trace]")
	fmt.Fprintln(os.Stderr, "  rff regress -corpus DIR [-maxsteps N]")
	fmt.Fprintf(os.Stderr, "strategy specs: %s (see `rff tools`)\n", strings.Join(strategy.Names(), ", "))
}

func cmdList() {
	fmt.Printf("%-50s %-9s %-8s %s\n", "PROGRAM", "SUITE", "BUG", "THREADS")
	for _, p := range bench.All() {
		fmt.Printf("%-50s %-9s %-8s %d\n", p.Name, p.Suite, p.Bug, p.Threads)
	}
}

// cmdTools lists the strategy registry: every spec the -tools flag
// accepts, with its grammar and the canonical tool name it resolves to.
// -json emits the machine-readable listing — the same encoder the
// daemon's GET /v1/tools endpoint uses, so scripts parse one format.
func cmdTools(args []string) {
	fs := flag.NewFlagSet("tools", flag.ExitOnError)
	quiet := fs.Bool("q", false, "print one registered spec name per line (for scripting)")
	asJSON := fs.Bool("json", false, "print the registry as JSON (same shape as rffd's GET /v1/tools)")
	fs.Parse(args)
	if *asJSON {
		if err := strategy.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rff: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *quiet {
		for _, e := range strategy.Entries() {
			fmt.Println(e.Name)
		}
		return
	}
	fmt.Printf("%-40s %-18s %s\n", "USAGE", "TOOL", "SUMMARY")
	for _, e := range strategy.Entries() {
		tl, err := strategy.Resolve(e.Name, strategy.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rff: resolving %q: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("%-40s %-18s %s\n", e.Usage, tl.Name(), e.Summary)
	}
}

// telemetrySession wires the -metrics/-events/-progress flags into a
// Hub plus a teardown that flushes and persists everything.
type telemetrySession struct {
	hub      *telemetry.Hub
	reporter *telemetry.Reporter
	events   *os.File
	metrics  string
}

// startTelemetry builds the session; a session with no flags set has a
// nil hub and a no-op close.
func startTelemetry(metricsPath, eventsPath string, progress time.Duration) (*telemetrySession, error) {
	s := &telemetrySession{metrics: metricsPath}
	if metricsPath == "" && eventsPath == "" && progress <= 0 {
		return s, nil
	}
	s.hub = telemetry.NewHub()
	if metricsPath != "" {
		// Fail fast on an unwritable path rather than silently losing the
		// snapshot after the whole campaign has run.
		f, err := os.Create(metricsPath)
		if err != nil {
			return nil, fmt.Errorf("creating metrics file: %w", err)
		}
		f.Close()
	}
	if eventsPath != "" {
		f, err := os.Create(eventsPath)
		if err != nil {
			return nil, fmt.Errorf("creating events file: %w", err)
		}
		s.events = f
		s.hub.Events = telemetry.NewEventWriter(f)
	}
	s.reporter = telemetry.StartReporter(progress, func() {
		fmt.Fprintf(os.Stderr, "progress: %s\n", telemetry.ProgressLine(s.hub.Snapshot()))
		s.hub.Flush()
	})
	return s, nil
}

// sink returns the session's hub as a Sink, or nil when disabled.
func (s *telemetrySession) sink() telemetry.Sink {
	if s.hub == nil {
		return nil
	}
	return s.hub
}

// close emits the campaign-done event, flushes the event stream, and
// writes the metrics snapshot.
func (s *telemetrySession) close() {
	if s.hub == nil {
		return
	}
	s.reporter.Stop()
	snap := s.hub.Snapshot()
	s.hub.Emit(telemetry.EvCampaignDone, telemetry.Fields{
		"schedules": snap.Total(telemetry.MSchedulesExecuted),
		"crashes":   snap.Total(telemetry.MSchedulesCrashed),
	})
	s.hub.Flush()
	if s.events != nil {
		if err := s.hub.Events.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "rff: event stream: %v (%d events dropped)\n", err, s.hub.Events.Dropped())
		}
		s.events.Close()
	}
	if s.metrics != "" {
		data, err := snap.MarshalJSONIndent()
		if err == nil {
			err = os.WriteFile(s.metrics, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rff: writing metrics snapshot: %v\n", err)
		}
	}
}

// cmdRun runs the run subcommand and returns its exit status. It never
// exits itself, so the deferred profile stop and telemetry flush always
// run.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	prog := fs.String("prog", "", "benchmark program name (see `rff list`)")
	toolsFlag := fs.String("tools", "", "comma-separated strategy specs to run (see `rff tools`; default rff)")
	budget := fs.Int("budget", 2000, "schedule budget per trial")
	seed := fs.Int64("seed", 1, "base random seed")
	trials := fs.Int("trials", 1, "number of trials")
	maxSteps := fs.Int("maxsteps", 0, "per-execution step budget (0 = default)")
	verbose := fs.Bool("v", false, "print each found failure's details")
	doMin := fs.Bool("minimize", false, "delta-debug each found failure's schedule to minimal context switches")
	outDir := fs.String("out", "", "directory to write each found failure's crash artifact to, as crash-NNN.json in matrix order")
	races := fs.Bool("races", false, "run the happens-before race detector over every counted execution")
	workers := fs.Int("workers", 0, "run trials concurrently on this many fleet workers; per-trial results are identical at any count (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "shard each rff trial's fuzz loop across this many worker shards; deterministic — results are identical at any shard count, though not to the unsharded loop (0 = unsharded)")
	budgetPolicy := fs.String("budget-policy", "",
		fmt.Sprintf("adaptive budget policy reallocating the campaign's execution pool across (tool, trial) cells at epoch barriers (%s; empty = fixed per-trial budgets)", strings.Join(budgetpkg.Policies(), "|")))
	budgetEpochs := fs.Int("budget-epochs", budgetpkg.DefaultEpochs, "allocation epochs under -budget-policy")
	trialTimeout := fs.Duration("trial-timeout", 0, "per-trial wall-clock deadline; a timed-out trial stops within one scheduling step and records an error (0 = none)")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot to this file at campaign end")
	eventsPath := fs.String("events", "", "stream campaign events to this file as JSON Lines")
	progress := fs.Duration("progress", 0, "print a progress line at this interval (e.g. 10s; 0 = off)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	fs.Parse(args)

	p, err := bench.Resolve(*prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		return 1
	}
	specText := *toolsFlag
	if specText == "" {
		specText = "rff"
	}
	specs, err := strategy.ParseSpecs(specText)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		return 1
	}
	// Resolve up front, so an invalid or duplicate spec fails before
	// any set-up.
	tools, err := strategy.ResolveAll(specs, strategy.Config{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		return 1
	}
	epochsSet := false
	fs.Visit(func(f *flag.Flag) { epochsSet = epochsSet || f.Name == "budget-epochs" })
	for _, bad := range []struct {
		when bool
		msg  string
	}{
		{*budget < 1, "-budget must be >= 1"},
		{*trials < 1, "-trials must be >= 1"},
		{*shards < 0, "-shards must be >= 0"},
		{epochsSet && *budgetPolicy == "", "-budget-epochs requires -budget-policy"},
	} {
		if bad.when {
			fmt.Fprintf(os.Stderr, "rff: %s\n", bad.msg)
			return 1
		}
	}
	stopCPU, err := perf.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		return 1
	}
	defer func() {
		stopCPU()
		if err := perf.WriteHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		}
	}()
	ts, err := startTelemetry(*metricsPath, *eventsPath, *progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		return 1
	}
	defer ts.close()
	names := make([]string, len(tools))
	for i, tl := range tools {
		names[i] = tl.Name()
	}
	if s := ts.sink(); s != nil {
		s.Emit(telemetry.EvCampaignStart, telemetry.Fields{
			"program": p.Name, "tools": strings.Join(names, ","), "budget": *budget, "trials": *trials,
		})
	}
	// Interrupts cancel in-flight trials gracefully: every strategy
	// observes ctx within one scheduling step, so ^C still reaches the
	// deferred telemetry flush with whatever completed so far.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// Every trial of every tool is one matrix cell; the matrix runs them
	// on a fleet pool with results identical at any -workers count.
	// Without -budget-policy the matrix spends its pool as one uniform
	// epoch, which is exactly a fixed budget per trial.
	cfg := strategy.Config{
		Telemetry:    ts.sink(),
		Trials:       *trials,
		Budget:       *budget,
		MaxSteps:     *maxSteps,
		BaseSeed:     *seed,
		Workers:      *workers,
		TrialTimeout: *trialTimeout,
		Shards:       *shards,
	}
	if *budgetPolicy != "" {
		cfg.Budgeter = &budgetpkg.Config{Policy: *budgetPolicy, Epochs: *budgetEpochs}
	}
	// The observer runs on every trial's fleet worker at once.
	var raceMu sync.Mutex
	raceKeys := make(map[string]struct{})
	if *races {
		cfg.Observer = func(res *exec.Result) {
			keys := race.DistinctKeys(race.Detect(res.Trace))
			raceMu.Lock()
			defer raceMu.Unlock()
			for _, k := range keys {
				raceKeys[k] = struct{}{}
			}
		}
	}
	m, err := strategy.RunMatrix(ctx, specs, []bench.Program{p}, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		return 1
	}
	// -v, -minimize and -out act on every found failure in matrix order
	// (tool, then trial), which also numbers the artifacts.
	saved := 0
	details := func(o campaign.Outcome) error {
		f := *o.Failure
		if *verbose {
			fmt.Printf("  failure:  %v\n", f.Failure)
			fmt.Printf("  abstract: %v\n", f.Schedule)
			fmt.Printf("  seed:     %d\n", f.Seed)
		}
		if *doMin {
			if res := minimize.Minimize(p.Name, p.Body, f.Decisions, f.Failure, minimize.Options{MaxSteps: *maxSteps}); res == nil {
				fmt.Println("  minimize: original schedule did not reproduce")
			} else {
				fmt.Printf("  minimize: %d -> %d context switches (%d preemptions) in %d probes\n",
					res.OriginalSwitches, res.MinimalSwitches, res.Preemptions, res.Probes)
				for _, sw := range res.Switches {
					fmt.Printf("    after t%d's event %d -> run t%d\n", sw.After, sw.Count, sw.Thread)
				}
			}
		}
		if *outDir != "" {
			f.Execution = o.FirstBug
			path := filepath.Join(*outDir, fmt.Sprintf("crash-%03d.json", saved))
			saved++
			err := os.MkdirAll(*outDir, 0o755)
			if err == nil {
				err = core.NewArtifact(p.Name, f).Save(path)
			}
			if err != nil {
				return fmt.Errorf("saving artifacts: %w", err)
			}
			fmt.Printf("  artifact: %s\n", path)
		}
		return nil
	}
	for _, toolName := range m.Tools {
		outs := m.Outcomes[toolName][p.Name]
		found := 0
		for tr, o := range outs {
			switch {
			case o.Errored():
				fmt.Printf("trial %d: %s aborted: %s\n", tr+1, toolName, o.Err)
			case o.Found():
				found++
				fmt.Printf("trial %d: %s found the bug after %d schedules\n", tr+1, toolName, o.FirstBug)
				if err := details(o); err != nil {
					fmt.Fprintf(os.Stderr, "rff: %v\n", err)
					return 1
				}
			default:
				fmt.Printf("trial %d: %s found no bug in %d schedules\n", tr+1, toolName, o.Executions)
			}
		}
		fmt.Printf("%s on %s: %d/%d trials found the bug\n", toolName, p.Name, found, len(outs))
	}
	if br := m.BudgetReport; br != nil {
		fmt.Printf("budget policy %s: %d epochs, %d/%d executions spent, %d reallocations\n",
			br.Policy, br.Epochs, br.Spent, br.Pool, br.Reallocations)
		for _, c := range br.Cells {
			status := ""
			if c.Bug {
				status = fmt.Sprintf(", first bug at global execution %d", c.FirstBug)
			}
			fmt.Printf("  %s: spent %d of %d allocated (%.1f%% share, %d new rf-pairs%s)\n",
				c.Tool, c.Spent, c.Allocated, c.SharePct, c.NewPairs, status)
		}
	}
	if *races {
		keys := make([]string, 0, len(raceKeys))
		for k := range raceKeys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("data races (happens-before, %d distinct):\n", len(keys))
		for _, k := range keys {
			fmt.Printf("  %s\n", k)
		}
	}
	return 0
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	artifact := fs.String("artifact", "", "crash artifact JSON (from `rff run -out`)")
	showTrace := fs.Bool("trace", false, "dump the replayed event trace")
	fs.Parse(args)
	if *artifact == "" {
		fmt.Fprintln(os.Stderr, "rff replay: -artifact is required")
		os.Exit(2)
	}
	os.Exit(runReplay(*artifact, *showTrace, os.Stdout, os.Stderr))
}

// runReplay is cmdReplay's testable core: it loads an artifact, replays
// its decision sequence, and returns the process exit code. It exits 0
// only when the replay reproduces the recorded failure under the rule
// `rff regress` applies (triage.Replay: same kind, and same location
// when one is recorded). Every failure mode — unreadable file, malformed
// or truncated JSON, unknown program, non-reproducing schedule — yields
// a readable message and a non-zero code, never a panic or a silent
// success.
func runReplay(artifactPath string, showTrace bool, stdout, stderr io.Writer) int {
	a, err := core.LoadArtifact(artifactPath)
	if err != nil {
		fmt.Fprintf(stderr, "rff: %v\n", err)
		return 1
	}
	res, mismatch, err := triage.Replay(a, 0)
	if err != nil {
		fmt.Fprintf(stderr, "rff: artifact references %v\n", err)
		return 1
	}
	if mismatch != "" {
		fmt.Fprintf(stdout, "%s: replay did NOT reproduce: %s\n", a.Program, mismatch)
		return 1
	}
	fmt.Fprintf(stdout, "%s: reproduced %v\n", a.Program, res.Failure)
	if showTrace {
		fmt.Fprint(stdout, report.Timeline(res.Trace))
	}
	return 0
}
