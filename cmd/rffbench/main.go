// Command rffbench regenerates the paper's evaluation artifacts:
//
//	rffbench table-b  [-trials 5] [-budget 2000]      # Appendix B table (E2)
//	rffbench fig4     [-trials 5] [-budget 2000]      # Figure 4 curves (E1)
//	rffbench fig5     [-n 10000] [-prog SafeStack]    # Figure 5 histograms (E3, E6)
//	rffbench rq1      [-trials 5] [-budget 2000]      # bugs-found comparison + Mann-Whitney
//	rffbench rq2      [-trials 5] [-budget 2000]      # RFF vs POS ablation + log-rank wins
//	rffbench rq4      [-trials 5] [-budget 2000]      # Q-Learning-RF comparison
//	rffbench classes  -prog CS/reorder_3 [-budget N]  # E8 rf-class reduction
//	rffbench conformance [-programs 50] [-seed 1] [-tools ...]  # differential conformance
//	rffbench sched-eval  [-programs 12] [-seeds 1,2,3] [-policies uniform,ucb,...]  # adaptive budget policy evaluation
//	rffbench shards   [-prog CS/twostage_20] [-shards 1,2,4]  # single-campaign shard scaling
//	rffbench triage   -in DIR | -store DIR | -progen-seed S  # cluster crashes into a regression corpus
//
// Matrix commands decompose into (tool, program, trial) cells and run on
// a fleet worker pool: `-workers N` bounds the pool (default GOMAXPROCS)
// and results are bit-identical at any worker count. table-b/fig4/rq1/all
// take `-tools SPEC[,SPEC...]` — strategy specs resolved through the
// internal/strategy registry (see `rff tools`), defaulting to the paper's
// panel. They also take `-json summary.json` (machine-readable per-cell
// summary, for tracking benchmark trajectories across PRs) and
// `-metrics out.json` (telemetry snapshot of the run). Every command
// takes `-cpuprofile FILE` / `-memprofile FILE` to capture pprof
// profiles of the run.
//
// The flags several commands share (-seed, -maxsteps, -workers, -tools,
// -q, -metrics, -budget-policy, -budget-epochs and the profile flags)
// come from one block; each command presets its own defaults. The exit
// status is 2 for bad flags and 1 for a failed run.
//
// Budgets default to laptop-scale settings; raise -trials/-budget toward
// the paper's 20 trials for tighter statistics (see EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/fleet"
	"rff/internal/perf"
	"rff/internal/report"
	"rff/internal/stats"
	"rff/internal/strategy"
	"rff/internal/systematic"
	"rff/internal/telemetry"
)

const usageLine = "usage: rffbench <table-b|fig4|fig5|rq1|rq2|rq4|all|classes|conformance|sched-eval|shards|triage> [flags]"

func main() {
	os.Exit(exitCode(rffbench(os.Args[1:])))
}

// subcommand is one rffbench command: the shared flags it takes, with
// their defaults preset in shared, and a setup that registers its own
// flags and returns the run to call once they are parsed.
type subcommand struct {
	shared shared
	take   []string
	setup  func(fs *flag.FlagSet, s *shared) func() error
}

var subcommands = map[string]subcommand{
	"table-b": matrix(renderTableB),
	"fig4":    matrix(renderFig4),
	"rq1":     matrix(renderRQ1),
	"all":     matrix(renderAll),
	"rq2":     matrix(renderRQ2, "rff", "pos"),
	"rq4":     matrix(renderRQ4, "rff", "qlearn"),
	"fig5": {
		shared: shared{seed: 1, maxSteps: 5000},
		take:   []string{"seed", "maxsteps", "workers"},
		setup:  cmdFig5,
	},
	"classes": {setup: cmdClasses},
	"shards": {
		shared: shared{seed: 1, maxSteps: 5000},
		take:   []string{"seed", "maxsteps"},
		setup:  cmdShards,
	},
	"conformance": {
		shared: shared{seed: 1, maxSteps: 4096, workers: 1,
			tools: strings.Join(strategy.Names(), ","), budgetEpochs: budget.DefaultEpochs},
		take:  []string{"seed", "maxsteps", "workers", "tools", "q", "metrics", "budget-policy", "budget-epochs"},
		setup: cmdConformance,
	},
	"sched-eval": {
		shared: shared{maxSteps: 4096, workers: 1,
			tools: strings.Join(strategy.Names(), ","), budgetEpochs: budget.DefaultEpochs},
		take:  []string{"maxsteps", "workers", "tools", "q", "metrics", "budget-epochs"},
		setup: cmdSchedEval,
	},
	"triage": {
		shared: shared{seed: 1, tools: "rff"},
		take:   []string{"seed", "maxsteps", "tools"},
		setup:  cmdTriage,
	},
}

// rffbench runs one command line; its error decides the exit status.
func rffbench(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usageLine)
		return usageError{errReported}
	}
	fs, run, err := command(args[0])
	if err != nil {
		return err
	}
	if err := fs.Parse(args[1:]); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return usageError{errReported} // fs printed the error and usage
	}
	return run()
}

// command builds a subcommand's flag set and the run that checks the
// shared flags and then executes it.
func command(name string) (*flag.FlagSet, func() error, error) {
	sc, ok := subcommands[name]
	if !ok {
		fmt.Fprintln(os.Stderr, usageLine)
		return nil, nil, usageError{errReported}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	s := sc.shared
	s.register(fs, sc.take)
	run := sc.setup(fs, &s)
	return fs, func() error {
		if err := s.validate(fs); err != nil {
			return err
		}
		return run()
	}, nil
}

// usageError marks a bad invocation: exit status 2 rather than 1.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// errReported is a failure whose explanation is already printed.
var errReported = errors.New("failure already reported")

// exitCode prints err and maps it onto the exit status: 0 on success or
// -h, 2 for a usage error, 1 for any other failure.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if !errors.Is(err, errReported) {
		fmt.Fprintf(os.Stderr, "rffbench: %v\n", err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// shared holds the flags several subcommands take. A subcommand names
// the ones it registers and presets their defaults; every subcommand
// takes the profile flags.
type shared struct {
	seed         int64
	maxSteps     int
	workers      int
	tools        string
	quiet        bool
	metrics      string
	budgetPolicy string
	budgetEpochs int
	cpuProfile   string
	memProfile   string

	specs []string // -tools, split by validate (or fixed by the command)
}

func (s *shared) register(fs *flag.FlagSet, take []string) {
	for _, name := range take {
		switch name {
		case "seed":
			fs.Int64Var(&s.seed, name, s.seed, "base seed")
		case "maxsteps":
			fs.IntVar(&s.maxSteps, name, s.maxSteps, "per-execution step budget (0 = engine default)")
		case "workers":
			fs.IntVar(&s.workers, name, s.workers, "concurrent fleet workers; results are identical at any count")
		case "tools":
			fs.StringVar(&s.tools, name, s.tools, "comma-separated strategy specs (see `rff tools`)")
		case "q":
			fs.BoolVar(&s.quiet, name, s.quiet, "suppress progress output")
		case "metrics":
			fs.StringVar(&s.metrics, name, s.metrics, "write a JSON telemetry snapshot to this file")
		case "budget-policy":
			fs.StringVar(&s.budgetPolicy, name, s.budgetPolicy,
				fmt.Sprintf("adaptive budget policy reallocating the execution pool across cells at epoch barriers (%s; empty = fixed per-cell budgets)", strings.Join(budget.Policies(), "|")))
		case "budget-epochs":
			fs.IntVar(&s.budgetEpochs, name, s.budgetEpochs, "allocation epochs per budgeted campaign")
		default:
			panic("rffbench: no shared flag -" + name)
		}
	}
	fs.StringVar(&s.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&s.memProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
}

// validate resolves -tools and checks -budget-policy and
// -budget-epochs, so a typo fails before the run starts.
func (s *shared) validate(fs *flag.FlagSet) error {
	if fs.Lookup("tools") != nil {
		specs, err := strategy.ParseSpecs(s.tools)
		if err == nil {
			_, err = strategy.ResolveAll(specs, strategy.Config{})
		}
		if err != nil {
			return usageError{err}
		}
		s.specs = specs
	}
	if b := s.budgeter(); b != nil {
		if err := b.Validate(); err != nil {
			return usageError{err}
		}
	}
	if fs.Lookup("budget-policy") != nil && s.budgetPolicy == "" {
		epochsSet := false
		fs.Visit(func(f *flag.Flag) { epochsSet = epochsSet || f.Name == "budget-epochs" })
		if epochsSet {
			return usagef("-budget-epochs requires -budget-policy")
		}
	}
	return nil
}

// budgeter is the -budget-policy allocator config (nil = fixed budgets).
func (s *shared) budgeter() *budget.Config {
	if s.budgetPolicy == "" {
		return nil
	}
	return &budget.Config{Policy: s.budgetPolicy, Epochs: s.budgetEpochs}
}

// run executes body under the profile flags and, with -metrics, a
// telemetry hub whose snapshot it writes afterwards. A named run reports
// its wall-clock on stderr unless -q.
func (s *shared) run(name string, body func(telemetry.Sink) error) error {
	var hub *telemetry.Hub
	var sink telemetry.Sink
	if s.metrics != "" {
		hub = telemetry.NewHub()
		sink = hub
	}
	stopCPU, err := perf.StartCPUProfile(s.cpuProfile)
	if err != nil {
		return err
	}
	start := time.Now()
	err = body(sink)
	stopCPU()
	if err != nil {
		return err
	}
	if err := perf.WriteHeapProfile(s.memProfile); err != nil {
		return err
	}
	if name != "" && !s.quiet {
		fmt.Fprintf(os.Stderr, "%s completed in %v\n", name, time.Since(start).Round(time.Millisecond))
	}
	if hub == nil {
		return nil
	}
	data, err := hub.Snapshot().MarshalJSONIndent()
	if err != nil {
		return fmt.Errorf("marshaling metrics snapshot: %w", err)
	}
	return os.WriteFile(s.metrics, append(data, '\n'), 0o644)
}

// progress draws done/total units on stderr at every n-th unit and at
// the end; it is nil under -q.
func (s *shared) progress(unit string, n int) func(done, total int) {
	if s.quiet {
		return nil
	}
	return func(done, total int) {
		if done%n == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%d/%d %s", done, total, unit)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
}

// positive rejects a non-positive value of any of the named int flags
// as a usage error, so no count falls back to a default or panics.
func positive(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if n := fs.Lookup(name).Value.(flag.Getter).Get().(int); n < 1 {
			return usagef("-%s must be >= 1, got %d", name, n)
		}
	}
	return nil
}

// splitList parses a comma-separated flag value entry by entry; a bad
// entry is a usage error, which parse words to name the entry.
func splitList[T any](flagName, list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, e := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(e))
		if err != nil {
			return nil, usagef("-%s: %v", flagName, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// matrix is an evaluation-matrix subcommand printed by render. Fixed
// specs replace the -tools flag.
func matrix(render func(*campaign.MatrixResult), fixed ...string) subcommand {
	sc := subcommand{
		shared: shared{seed: 1, maxSteps: 5000, budgetEpochs: budget.DefaultEpochs, specs: fixed},
		take:   []string{"seed", "maxsteps", "workers", "q", "metrics", "budget-policy", "budget-epochs"},
		setup: func(fs *flag.FlagSet, s *shared) func() error {
			trials := fs.Int("trials", 5, "trials per (tool, program); the paper uses 20")
			trialBudget := fs.Int("budget", 2000, "schedule budget per trial")
			suite := fs.String("suite", "", "restrict to one suite (CS, Chess, ConVul, ...)")
			progs := fs.String("progs", "", "comma-separated program list (default: all)")
			jsonPath := fs.String("json", "", "write the experiment summary as machine-readable JSON to this file")
			return func() error {
				if err := positive(fs, "trials", "budget"); err != nil {
					return err
				}
				ps, err := programs(*progs, *suite)
				if err != nil {
					return err
				}
				var m *campaign.MatrixResult
				// The registry threads the sink into every resolved tool
				// exactly once, so the snapshot carries engine/fuzzer
				// series without any per-tool retrofitting here.
				err = s.run("matrix", func(sink telemetry.Sink) (err error) {
					m, err = strategy.RunMatrix(context.Background(), s.specs, ps, strategy.Config{
						Telemetry: sink,
						Trials:    *trials,
						Budget:    *trialBudget,
						MaxSteps:  s.maxSteps,
						BaseSeed:  s.seed,
						Workers:   s.workers,
						Progress:  s.progress("trials", 25),
						Budgeter:  s.budgeter(),
					})
					return err
				})
				if err != nil {
					return err
				}
				if br := m.BudgetReport; br != nil && !s.quiet {
					fmt.Fprintf(os.Stderr, "budget policy %s: %d epochs, %d/%d executions spent, %d reallocations\n",
						br.Policy, br.Epochs, br.Spent, br.Pool, br.Reallocations)
				}
				if errs := m.TrialErrors(); len(errs) > 0 {
					fmt.Fprintf(os.Stderr, "warning: %d trials aborted with errors:\n", len(errs))
					for _, e := range errs {
						fmt.Fprintf(os.Stderr, "  %s\n", e)
					}
				}
				if *jsonPath != "" {
					if err := writeSummaryJSON(*jsonPath, m); err != nil {
						return err
					}
				}
				render(m)
				return nil
			}
		},
	}
	if fixed == nil {
		sc.shared.tools = strings.Join(strategy.DefaultSpecs(), ",")
		sc.take = append(sc.take, "tools")
	}
	return sc
}

// programs selects a matrix's programs: -progs by name, else one -suite,
// else the paper's subject set (the Extras suite is opt-in).
func programs(progs, suite string) ([]bench.Program, error) {
	if progs != "" {
		return splitList("progs", progs, bench.Resolve)
	}
	if suite != "" {
		ps := bench.BySuite(suite)
		if len(ps) == 0 {
			return nil, usagef("-suite %q selects no programs (suites: %s)", suite, strings.Join(bench.Suites(), ", "))
		}
		return ps, nil
	}
	var out []bench.Program
	for _, p := range bench.All() {
		if p.Suite != "Extras" {
			out = append(out, p)
		}
	}
	return out, nil
}

// cellSummary is one (tool, program) cell of the JSON experiment summary.
type cellSummary struct {
	Tool    string `json:"tool"`
	Program string `json:"program"`
	Trials  int    `json:"trials"`
	// Found is how many trials exposed the bug.
	Found int `json:"found"`
	// MeanSchedulesToBug/StdSchedulesToBug summarize the bug-finding
	// trials only (0 when the bug was never found).
	MeanSchedulesToBug float64 `json:"mean_schedules_to_bug"`
	StdSchedulesToBug  float64 `json:"std_schedules_to_bug"`
	// Errors counts trials aborted by infrastructure failures.
	Errors int `json:"errors,omitempty"`
}

// matrixSummary is the machine-readable form of an evaluation matrix —
// the per-PR benchmark trajectory record behind `-json`.
type matrixSummary struct {
	Budget   int      `json:"budget"`
	Trials   int      `json:"trials"`
	Tools    []string `json:"tools"`
	Programs []string `json:"programs"`
	// BugsFoundMean is the mean number of programs each tool found a
	// bug in, over its trials (the RQ1 headline number).
	BugsFoundMean map[string]float64 `json:"bugs_found_mean"`
	Cells         []cellSummary      `json:"cells"`
}

func writeSummaryJSON(path string, m *campaign.MatrixResult) error {
	s := matrixSummary{
		Budget:        m.Budget,
		Tools:         m.Tools,
		Programs:      m.Programs,
		BugsFoundMean: make(map[string]float64, len(m.Tools)),
	}
	for _, tool := range m.Tools {
		s.BugsFoundMean[tool] = stats.Mean(m.BugsFoundPerTrial(tool))
		for _, p := range m.Programs {
			outs := m.Outcomes[tool][p]
			if len(outs) > s.Trials {
				s.Trials = len(outs)
			}
			cell := cellSummary{Tool: tool, Program: p, Trials: len(outs)}
			for _, o := range outs {
				if o.Found() {
					cell.Found++
				}
				if o.Errored() {
					cell.Errors++
				}
			}
			mean, std, _ := m.MeanStd(tool, p)
			if cell.Found > 0 {
				cell.MeanSchedulesToBug, cell.StdSchedulesToBug = mean, std
			}
			s.Cells = append(s.Cells, cell)
		}
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling summary: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func renderTableB(m *campaign.MatrixResult) {
	fmt.Println("Mean Number of Schedules to 1st Bug (Appendix B reproduction)")
	fmt.Println("(\"-\" = bug never found; \"*\" = missed in at least one trial)")
	fmt.Println()
	fmt.Print(report.AppendixB(m))
	fmt.Println()
	fmt.Println("Side-by-side with the paper's Appendix B:")
	fmt.Println()
	fmt.Print(report.AppendixBVsPaper(m))
	fmt.Println()
	fmt.Println("Shape checks:")
	fmt.Print(report.ShapeChecks(m))
}

func renderFig4(m *campaign.MatrixResult) {
	tools := slices.DeleteFunc([]string{"RFF", "POS", "PCT3", "PERIOD*", "QLearning-RF"},
		func(t string) bool { return !slices.Contains(m.Tools, t) })
	fmt.Println("Figure 4: Total Bugs Discovered After Log(# Schedules) Across All Trials")
	fmt.Println()
	fmt.Print(report.Fig4ASCII(m, tools))
	fmt.Println()
	fmt.Println("CSV data:")
	fmt.Print(report.Fig4CSV(m, tools))
}

func renderRQ1(m *campaign.MatrixResult) {
	fmt.Println("RQ1: bugs found per trial (mean over trials) and pairwise significance")
	fmt.Println()
	for _, tool := range m.Tools {
		counts := m.BugsFoundPerTrial(tool)
		fmt.Printf("  %-14s mean bugs found: %5.1f / %d programs\n",
			tool, stats.Mean(counts), len(m.Programs))
	}
	fmt.Println()
	rff := m.BugsFoundPerTrial("RFF")
	for _, tool := range m.Tools {
		if tool == "RFF" || tool == "GenMC*" {
			continue
		}
		_, p := stats.MannWhitneyU(rff, m.BugsFoundPerTrial(tool))
		fmt.Printf("  Mann-Whitney U (RFF vs %s): p = %.4g\n", tool, p)
	}
	for _, other := range []string{"PERIOD*", "POS"} {
		aw, bw := m.SignificantWins("RFF", other, 0.05)
		fmt.Printf("  log-rank: RFF significantly fewer schedules than %s on %d/%d programs; "+
			"%s better on %d\n", other, aw, len(m.Programs), other, bw)
	}
}

func renderAll(m *campaign.MatrixResult) {
	renderTableB(m)
	fmt.Println()
	renderFig4(m)
	fmt.Println()
	renderRQ1(m)
}

func renderRQ2(m *campaign.MatrixResult) {
	fmt.Println("RQ2: contribution of the abstract schedule (RFF vs its POS fallback)")
	fmt.Println()
	fmt.Printf("  RFF mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("RFF")))
	fmt.Printf("  POS mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("POS")))
	aw, bw := m.SignificantWins("RFF", "POS", 0.05)
	fmt.Printf("  RFF significantly fewer schedules on %d/%d programs (log-rank, p<0.05)\n",
		aw, len(m.Programs))
	fmt.Printf("  POS significantly fewer schedules on %d/%d programs\n", bw, len(m.Programs))
	fmt.Println()
	fmt.Print(report.AppendixB(m))
}

func renderRQ4(m *campaign.MatrixResult) {
	fmt.Println("RQ4: greybox fuzzing vs Q-Learning over the same reads-from information")
	fmt.Println()
	fmt.Printf("  RFF          mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("RFF")))
	fmt.Printf("  QLearning-RF mean bugs found: %.1f\n", stats.Mean(m.BugsFoundPerTrial("QLearning-RF")))
	aw, _ := m.SignificantWins("RFF", "QLearning-RF", 0.05)
	fmt.Printf("  RFF significantly fewer schedules on %d/%d programs\n", aw, len(m.Programs))
	// One-shot successes: programs where the first schedule of trial 0 hit the bug.
	oneShot := func(tool string) int {
		n := 0
		for _, p := range m.Programs {
			outs := m.Outcomes[tool][p]
			if len(outs) > 0 && outs[0].FirstBug == 1 {
				n++
			}
		}
		return n
	}
	fmt.Printf("  first-schedule successes: RFF %d, QLearning-RF %d\n",
		oneShot("RFF"), oneShot("QLearning-RF"))
}

func cmdFig5(fs *flag.FlagSet, s *shared) func() error {
	n := fs.Int("n", 10000, "schedules per configuration (paper: 10000)")
	prog := fs.String("prog", "SafeStack", "program to profile")
	bars := fs.Int("bars", 40, "bars to draw")
	csv := fs.Bool("csv", false, "emit CSV instead of ASCII bars")
	nofb := fs.Bool("nofeedback", false, "profile RFF without greybox feedback instead of POS (RQ3 ablation)")
	return func() error {
		if err := positive(fs, "n"); err != nil {
			return err
		}
		p, err := bench.Resolve(*prog)
		if err != nil {
			return usageError{err}
		}
		// The two configurations are independent fixed-seed profiles —
		// ideal fleet cells: identical output at any worker count, half
		// the wall-clock with two cores.
		cells := []fleet.Cell[*campaign.Distribution]{
			{ID: "fig5/top", Run: func(context.Context) (*campaign.Distribution, error) {
				if *nofb {
					return campaign.RFDistributionRFF(p, *n, s.seed, s.maxSteps, false), nil
				}
				return campaign.RFDistributionPOS(p, *n, s.seed, s.maxSteps), nil
			}},
			{ID: "fig5/bottom", Run: func(context.Context) (*campaign.Distribution, error) {
				return campaign.RFDistributionRFF(p, *n, s.seed, s.maxSteps, true), nil
			}},
		}
		var results []fleet.Result[*campaign.Distribution]
		if err := s.run("", func(telemetry.Sink) error {
			results = fleet.Run(context.Background(), cells, fleet.Options{Workers: s.workers})
			return nil
		}); err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("%s: %v\n%s", r.Cell, r.Err, r.Stack)
			}
		}
		top, bottom := results[0].Value, results[1].Value

		fmt.Printf("Figure 5: reads-from combination frequencies on %s (%d schedules)\n\n", p.Name, *n)
		if *csv {
			fmt.Print(report.Fig5CSV(top))
			fmt.Print(report.Fig5CSV(bottom))
			return nil
		}
		fmt.Print(report.Fig5ASCII(top, *bars))
		fmt.Println()
		fmt.Print(report.Fig5ASCII(bottom, *bars))
		return nil
	}
}

func cmdClasses(fs *flag.FlagSet, s *shared) func() error {
	prog := fs.String("prog", "Extras/reorder_2", "program to enumerate")
	maxExecs := fs.Int("budget", 500000, "max schedules")
	return func() error {
		if err := positive(fs, "budget"); err != nil {
			return err
		}
		p, err := bench.Resolve(*prog)
		if err != nil {
			return usageError{err}
		}
		var rep *systematic.ExploreReport
		if err := s.run("", func(telemetry.Sink) error {
			rep = systematic.Explore(p.Name, p.Body, systematic.ExploreOptions{MaxExecutions: *maxExecs})
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("E8: %s — %d schedules enumerated", p.Name, rep.Executions)
		if rep.Complete {
			fmt.Print(" (complete)")
		} else {
			fmt.Print(" (budget exhausted)")
		}
		fmt.Printf(", %d reads-from equivalence classes\n", rep.Classes)
		if rep.Executions > 0 {
			fmt.Printf("reduction factor: %.0fx\n", float64(rep.Executions)/float64(max(rep.Classes, 1)))
		}
		return nil
	}
}

// cmdShards measures single-campaign shard scaling: one program's
// campaign at each shard count, its execs/sec curve, and the shard
// runner's promise that every count merges to the same report (exit 1
// when they differ).
func cmdShards(fs *flag.FlagSet, s *shared) func() error {
	prog := fs.String("prog", "CS/twostage_20", "program to fuzz")
	campBudget := fs.Int("budget", 4000, "schedule budget per campaign")
	counts := fs.String("shards", "1,2,4", "comma-separated shard counts (the first is the speedup baseline)")
	target := fs.Float64("assert-speedup", 0, "fail unless the highest shard count reaches this execs/sec speedup (0 = no assert; skipped on 1 CPU)")
	return func() error {
		if err := positive(fs, "budget"); err != nil {
			return err
		}
		p, err := bench.Resolve(*prog)
		if err != nil {
			return usageError{err}
		}
		ns, err := splitList("shards", *counts, func(e string) (int, error) {
			n, err := strconv.Atoi(e)
			if err == nil && n <= 0 {
				err = fmt.Errorf("shard count %d is not positive", n)
			}
			return n, err
		})
		if err != nil {
			return err
		}
		var sc *perf.ShardScaling
		if err := s.run("", func(telemetry.Sink) error {
			sc = perf.MeasureShards(p, *campBudget, s.maxSteps, s.seed, ns)
			return nil
		}); err != nil {
			return err
		}
		fmt.Printf("shard scaling: %s (budget %d, %d CPUs):\n", sc.Program, sc.Budget, sc.NumCPU)
		for _, pt := range sc.Points {
			fmt.Printf("  %2d shards  %9.0f execs/sec  %5.2fx  %7.1f allocs/exec\n",
				pt.Shards, pt.ExecsPerSec, pt.Speedup, pt.AllocsPerExec)
		}
		if !sc.ResultsIdentical {
			return fmt.Errorf("%s reports diverged across shard counts", sc.Program)
		}
		fmt.Println("  reports bit-identical at every shard count")
		speedup := sc.Points[len(sc.Points)-1].Speedup
		switch {
		case *target <= 0:
		case runtime.NumCPU() == 1:
			fmt.Println("shard speedup assert skipped: 1 CPU (scaling is not expected)")
		case speedup < *target:
			return fmt.Errorf("shard scaling below target: %.2fx at the highest shard count, want >= %.2fx", speedup, *target)
		default:
			fmt.Printf("shard speedup assert passed: %.2fx >= %.2fx\n", speedup, *target)
		}
		return nil
	}
}
