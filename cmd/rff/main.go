// Command rff runs the Reads-From Fuzzer (or one of the baseline
// concurrency testing strategies) on a benchmark program.
//
// Usage:
//
//	rff list                                   # list benchmark programs
//	rff tools [-q] [-json]                     # list registered strategy specs
//	rff run -prog CS/reorder_100 [-tools rff] [-budget 2000] [-seed 1] [-trials 1]
//	        [-workers N] [-shards N] [-trial-timeout DUR]
//	        [-v] [-minimize] [-races] [-out DIR]
//	        [-metrics out.json] [-events out.jsonl] [-progress 10s]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	rff explore -prog CS/account [-budget 100000]   # exhaustive enumeration
//	rff replay -artifact crashes/crash-000.json [-trace]
//	rff regress -corpus triage-corpus             # replay the regression corpus
//
// Strategies are named by parameterized specs resolved through the
// internal/strategy registry — `-tools pos,pct:7,rff` runs three tools
// in one invocation. See `rff tools` (or the README's tool-spec grammar
// table) for the registered specs: rff, rff:nofb, pos, pct:<depth>,
// random, qlearn[:key=value...], period[:<bound>], genmc.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"rff/internal/bench"
	budgetpkg "rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/fleet"
	"rff/internal/minimize"
	"rff/internal/perf"
	"rff/internal/progen"
	"rff/internal/race"
	"rff/internal/report"
	"rff/internal/sched"
	"rff/internal/shard"
	"rff/internal/strategy"
	"rff/internal/systematic"
	"rff/internal/telemetry"
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
		cmdRun(os.Args[2:])
	case "explore":
		cmdExplore(os.Args[2:])
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
	fmt.Fprintln(os.Stderr, "usage: rff <list|tools|run|explore|replay|regress> [flags]")
	fmt.Fprintln(os.Stderr, "  rff list")
	fmt.Fprintln(os.Stderr, "  rff tools [-q] [-json]")
	fmt.Fprintln(os.Stderr, "  rff run -prog NAME [-tools SPEC[,SPEC...]] [-budget N] [-seed S] [-trials K] [-workers N] [-trial-timeout DUR] [-v] [-minimize] [-out DIR] [-metrics FILE] [-events FILE] [-progress DUR]")
	fmt.Fprintln(os.Stderr, "  rff explore -prog NAME [-budget N]")
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

// resolveProgram finds a benchmark by exact name, falling back to a
// unique suite-less suffix match so `-prog reorder_10` resolves to
// "CS/reorder_10".
func resolveProgram(name string) (bench.Program, bool) {
	if p, ok := bench.Get(name); ok {
		return p, true
	}
	var matches []bench.Program
	for _, p := range bench.All() {
		if strings.HasSuffix(p.Name, "/"+name) {
			matches = append(matches, p)
		}
	}
	if len(matches) == 1 {
		return matches[0], true
	}
	if len(matches) > 1 {
		fmt.Fprintf(os.Stderr, "rff: program %q is ambiguous:\n", name)
		for _, p := range matches {
			fmt.Fprintf(os.Stderr, "  %s\n", p.Name)
		}
	}
	return bench.Program{}, false
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

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	prog := fs.String("prog", "", "benchmark program name (see `rff list`)")
	toolsFlag := fs.String("tools", "", "comma-separated strategy specs to run (see `rff tools`; default rff)")
	budget := fs.Int("budget", 2000, "schedule budget per trial")
	seed := fs.Int64("seed", 1, "base random seed")
	trials := fs.Int("trials", 1, "number of trials")
	maxSteps := fs.Int("maxsteps", 0, "per-execution step budget (0 = default)")
	verbose := fs.Bool("v", false, "print the failing schedule details (rff tool only)")
	doMin := fs.Bool("minimize", false, "delta-debug the failing schedule to minimal context switches (rff tool only)")
	outDir := fs.String("out", "", "directory to write crash artifacts to (rff tool only)")
	races := fs.Bool("races", false, "run the happens-before race detector over every execution (rff tool only)")
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

	p, ok := resolveProgram(*prog)
	if !ok {
		fmt.Fprintf(os.Stderr, "rff: unknown program %q (see `rff list`)\n", *prog)
		os.Exit(1)
	}
	specText := *toolsFlag
	if specText == "" {
		specText = "rff"
	}
	specs, err := strategy.ParseSpecs(specText)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		os.Exit(1)
	}
	// Canonicalize up front: an invalid spec fails before any set-up,
	// and the paths below compare canonical specs.
	for i, s := range specs {
		if specs[i], err = strategy.Canonical(s); err != nil {
			fmt.Fprintf(os.Stderr, "rff: %v\n", err)
			os.Exit(1)
		}
	}
	stopCPU, err := perf.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		os.Exit(1)
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
		os.Exit(1)
	}
	defer ts.close()
	if *shards < 0 {
		fmt.Fprintln(os.Stderr, "rff: -shards must be >= 0")
		os.Exit(1)
	}
	tools, err := strategy.ResolveAll(specs, strategy.Config{Telemetry: ts.sink(), Shards: *shards})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		os.Exit(1)
	}
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

	if *budgetPolicy != "" {
		runBudgeted(ctx, p, specs, ts, budgetedRunFlags{
			policy: *budgetPolicy, epochs: *budgetEpochs,
			trials: *trials, budget: *budget, maxSteps: *maxSteps,
			seed: *seed, workers: *workers, trialTimeout: *trialTimeout,
			shards:       *shards,
			wantsVerbose: *verbose || *doMin || *outDir != "" || *races,
		})
		return
	}

	if (*verbose || *doMin || *outDir != "" || *races) && len(tools) == 1 && specs[0] == "rff" {
		tl := tools[0]
		raceKeys := make(map[string]struct{})
		opts := core.Options{
			// Derive the same seed the trial loop gives trial 0, so the
			// verbose path reproduces trial 1 of a plain run.
			Budget: *budget, Seed: campaign.TrialSeed(*seed, tl.Name(), p.Name, 0),
			MaxSteps: *maxSteps, StopAtFirstBug: true,
			Telemetry: ts.sink(),
		}
		if *races {
			if *shards >= 1 {
				// The sharded runner recycles traces on its shards before the
				// barrier, so there is nothing for a TraceObserver to see.
				fmt.Fprintln(os.Stderr, "rff: -races is incompatible with -shards; run the race detector unsharded")
				os.Exit(1)
			}
			opts.TraceObserver = func(t *exec.Trace) {
				for _, k := range race.DistinctKeys(race.Detect(t)) {
					raceKeys[k] = struct{}{}
				}
			}
		}
		var rep *core.Report
		if *shards >= 1 {
			rep = shard.FuzzContext(ctx, p.Name, p.Body, shard.Options{
				Budget: opts.Budget, Seed: opts.Seed, MaxSteps: opts.MaxSteps,
				StopAtFirstBug: true, Telemetry: ts.sink(),
				Shards: *shards,
			})
		} else {
			rep = core.NewFuzzer(p.Name, p.Body, opts).RunContext(ctx)
		}
		if *races {
			defer func() {
				keys := make([]string, 0, len(raceKeys))
				for k := range raceKeys {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				fmt.Printf("  data races (happens-before, %d distinct):\n", len(keys))
				for _, k := range keys {
					fmt.Printf("    %s\n", k)
				}
			}()
		}
		if !rep.FoundBug() {
			fmt.Printf("%s: no bug in %d schedules (%d rf pairs, %d combos, corpus %d)\n",
				p.Name, rep.Executions, rep.UniquePairs, rep.UniqueSigs, rep.CorpusSize)
			return
		}
		f := rep.Failures[0]
		fmt.Printf("%s: bug at schedule %d\n", p.Name, rep.FirstBug)
		fmt.Printf("  failure:  %v\n", f.Failure)
		fmt.Printf("  abstract: %v\n", f.Schedule)
		fmt.Printf("  seed:     %d\n", f.Seed)
		if *doMin {
			res := minimize.Minimize(p.Name, p.Body, f.Decisions, f.Failure, minimize.Options{MaxSteps: *maxSteps})
			if res == nil {
				fmt.Println("  minimize: original schedule did not reproduce")
				return
			}
			fmt.Printf("  minimize: %d -> %d context switches (%d preemptions) in %d probes\n",
				res.OriginalSwitches, res.MinimalSwitches, res.Preemptions, res.Probes)
			for _, sw := range res.Switches {
				fmt.Printf("    after t%d's event %d -> run t%d\n", sw.After, sw.Count, sw.Thread)
			}
		}
		if *outDir != "" {
			paths, err := core.SaveFailures(*outDir, rep)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rff: saving artifacts: %v\n", err)
				os.Exit(1)
			}
			for _, path := range paths {
				fmt.Printf("  artifact: %s\n", path)
			}
		}
		return
	}

	// Trials are independent cells: each draws its seed from the cell
	// identity (campaign.TrialSeed), so a fleet pool runs them
	// concurrently with per-trial results identical at any -workers
	// count (only completion timing differs; output stays in (tool,
	// trial) order via the deterministic merge).
	type cellKey struct {
		tool  campaign.Tool
		trial int
	}
	var (
		cells []fleet.Cell[campaign.Outcome]
		keys  []cellKey
	)
	for _, tl := range tools {
		tl := tl
		nTrials := *trials
		if tl.Deterministic() {
			nTrials = 1
		}
		for tr := 0; tr < nTrials; tr++ {
			tr := tr
			cells = append(cells, fleet.Cell[campaign.Outcome]{
				ID:   fmt.Sprintf("%s/%s[%d]", tl.Name(), p.Name, tr),
				Spec: tl.Name(),
				Run: func(ctx context.Context, sc *fleet.Scratch) (campaign.Outcome, error) {
					out := tl.Run(ctx, p, *budget, *maxSteps, campaign.TrialSeed(*seed, tl.Name(), p.Name, tr))
					if s := ts.sink(); s != nil && !out.Errored() {
						s.Emit(telemetry.EvTrialDone, telemetry.Fields{
							"tool": tl.Name(), "program": p.Name, "trial": tr,
							"executions": out.Executions, "first_bug": out.FirstBug,
							"worker": sc.Worker,
						})
					}
					return out, nil
				},
			})
			keys = append(keys, cellKey{tool: tl, trial: tr})
		}
	}
	results := fleet.Run(ctx, cells, fleet.Options{
		Workers:     *workers,
		CellTimeout: *trialTimeout,
		Telemetry:   ts.sink(),
	})
	var (
		curName string
		found   int
		ran     int
	)
	summary := func() {
		if curName != "" {
			fmt.Printf("%s on %s: %d/%d trials found the bug\n", curName, p.Name, found, ran)
		}
	}
	for i, r := range results {
		k := keys[i]
		tl, out := k.tool, r.Value
		if tl.Name() != curName {
			summary()
			curName, found, ran = tl.Name(), 0, 0
		}
		ran++
		if s := ts.sink(); s != nil {
			s.Add(telemetry.MTrialsDone, 1, telemetry.L("tool", tl.Name()), telemetry.L("program", p.Name))
		}
		errMsg := ""
		switch {
		case r.Err != nil:
			errMsg = r.Err.Error()
			if s := ts.sink(); s != nil {
				s.Add(telemetry.MTrialPanics, 1, telemetry.L("tool", tl.Name()), telemetry.L("program", p.Name))
				s.Emit(telemetry.EvTrialError, telemetry.Fields{
					"tool": tl.Name(), "program": p.Name, "trial": k.trial,
					"error": errMsg, "stack": r.Stack,
				})
			}
		case out.Errored():
			// In-tool abort (per-trial deadline or ^C observed mid-run).
			errMsg = out.Err
		}
		switch {
		case errMsg != "":
			fmt.Printf("trial %d: %s aborted: %s\n", k.trial+1, tl.Name(), errMsg)
		case out.Found():
			found++
			fmt.Printf("trial %d: %s found the bug after %d schedules\n", k.trial+1, tl.Name(), out.FirstBug)
		default:
			fmt.Printf("trial %d: %s found no bug in %d schedules\n", k.trial+1, tl.Name(), out.Executions)
		}
	}
	summary()
}

// budgetedRunFlags carries the `rff run` flags the adaptive-budget
// path consumes.
type budgetedRunFlags struct {
	policy       string
	epochs       int
	trials       int
	budget       int
	maxSteps     int
	seed         int64
	workers      int
	trialTimeout time.Duration
	shards       int
	wantsVerbose bool
}

// runBudgeted executes `rff run -budget-policy`: the program's (tool,
// trial) cells share one execution pool of budget x trials per tool,
// reallocated every epoch by the policy. Prints per-trial outcomes in
// deterministic (tool, trial) order plus the allocation accounting.
func runBudgeted(ctx context.Context, p bench.Program, specs []string, ts *telemetrySession, f budgetedRunFlags) {
	bcfg := &budgetpkg.Config{Policy: f.policy, Epochs: f.epochs}
	if err := bcfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		os.Exit(1)
	}
	if f.shards >= 1 {
		fmt.Fprintln(os.Stderr, "rff: -budget-policy is incompatible with -shards (the shard runner's observer sees only failures)")
		os.Exit(1)
	}
	if f.wantsVerbose {
		fmt.Fprintln(os.Stderr, "rff: -budget-policy is incompatible with -v/-minimize/-out/-races")
		os.Exit(1)
	}
	m, err := strategy.RunMatrix(ctx, specs, []bench.Program{p}, strategy.Config{
		Telemetry:    ts.sink(),
		Trials:       f.trials,
		Budget:       f.budget,
		MaxSteps:     f.maxSteps,
		BaseSeed:     f.seed,
		Workers:      f.workers,
		TrialTimeout: f.trialTimeout,
		Budgeter:     bcfg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rff: %v\n", err)
		os.Exit(1)
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
			default:
				fmt.Printf("trial %d: %s found no bug in %d schedules\n", tr+1, toolName, o.Executions)
			}
		}
		fmt.Printf("%s on %s: %d/%d trials found the bug\n", toolName, p.Name, found, len(outs))
	}
	br := m.BudgetReport
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
// its decision sequence, and returns the process exit code. Every
// failure mode — unreadable file, malformed or truncated JSON, unknown
// program, non-reproducing schedule — yields a readable message on
// stderr and a non-zero code, never a panic or a silent success.
func runReplay(artifactPath string, showTrace bool, stdout, stderr io.Writer) int {
	a, err := core.LoadArtifact(artifactPath)
	if err != nil {
		fmt.Fprintf(stderr, "rff: %v\n", err)
		return 1
	}
	p, ok := bench.Get(a.Program)
	if !ok {
		// Generated programs ("gen/s<seed>/<index>") are not in the bench
		// registry; regenerate them from the name instead.
		if gp, gok := progen.FromName(a.Program); gok {
			p, ok = gp.Bench(), true
		}
	}
	if !ok {
		fmt.Fprintf(stderr, "rff: artifact references unknown program %q\n", a.Program)
		return 1
	}
	res := exec.Run(p.Name, p.Body, exec.Config{Scheduler: sched.NewReplay(a.ThreadOrder())})
	if res.Failure == nil {
		fmt.Fprintf(stdout, "%s: replay did NOT reproduce (expected %s: %s)\n", a.Program, a.FailureKind, a.FailureMsg)
		return 1
	}
	fmt.Fprintf(stdout, "%s: reproduced %v\n", a.Program, res.Failure)
	if showTrace {
		fmt.Fprint(stdout, report.Timeline(res.Trace))
	}
	return 0
}

func cmdExplore(args []string) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	prog := fs.String("prog", "", "benchmark program name")
	budget := fs.Int("budget", 100000, "max schedules to enumerate")
	fs.Parse(args)
	p, ok := resolveProgram(*prog)
	if !ok {
		fmt.Fprintf(os.Stderr, "rff: unknown program %q\n", *prog)
		os.Exit(1)
	}
	rep := systematic.Explore(p.Name, p.Body, systematic.ExploreOptions{MaxExecutions: *budget})
	status := "INCOMPLETE (budget exhausted)"
	if rep.Complete {
		status = "complete"
	}
	fmt.Printf("%s: %d schedules enumerated (%s), %d reads-from classes\n",
		p.Name, rep.Executions, status, rep.Classes)
	if rep.FirstBug > 0 {
		fmt.Printf("first bug at schedule %d: %v\n", rep.FirstBug, rep.FirstFailure)
	} else {
		fmt.Println("no bug found")
	}
}
