// Package conformance is the differential correctness backstop for every
// scheduling strategy in the registry: it generates small concurrent
// programs (internal/progen), enumerates each program's complete
// behavior set with the systematic explorer — every reachable reads-from
// pair, failure, and final state — and then runs every strategy spec
// against the program, checking three invariants:
//
//   - Soundness: anything a randomized strategy observes (rf-pairs,
//     failures, final states) must be inside the enumerated set. Every
//     strategy execution is a leaf of the same scheduling decision tree,
//     so on a completely enumerated program this inclusion is exact, not
//     statistical.
//
//   - No false bugs: every failure a strategy reports must replay
//     deterministically from its serialized Artifact decision sequence,
//     reproducing the same failure kind, message, location, and thread.
//
//   - Convergence telemetry: the fraction of ground-truth rf-pairs each
//     strategy covers per schedule budget, logged through
//     internal/telemetry and summarized in the report — the
//     coverage-vs-budget curves EXPERIMENTS.md interprets.
//
// Candidate programs whose decision tree does not enumerate within the
// ground-truth budget are skipped deterministically (the generator
// stream continues; see Workload), so a run checks exactly
// Options.Programs programs and remains a pure function of (seed,
// options).
package conformance

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/progen"
	"rff/internal/sched"
	"rff/internal/strategy"
	"rff/internal/systematic"
	"rff/internal/telemetry"
)

// Options configures a conformance run. The zero value of every field
// selects the default noted on it.
type Options struct {
	// Programs is the number of generated programs to check (default 50).
	Programs int
	// Seed drives the program generator and every trial seed.
	Seed int64
	// Specs are the strategy specs to check (default: every registered
	// strategy, i.e. strategy.Names()).
	Specs []string
	// Trials per (program, spec) for randomized strategies; deterministic
	// ones always run once, with the whole Budget x Trials entitlement,
	// as in every campaign matrix (default 1).
	Trials int
	// Budget is the schedule budget per trial (default 300). Coverage
	// checkpoints stop at Budget.
	Budget int
	// GTBudget caps the ground-truth enumeration per program; programs
	// that do not enumerate completely within it are skipped
	// (default 60000).
	GTBudget int
	// MaxSteps bounds every execution, ground truth and trials alike
	// (default 4096).
	MaxSteps int
	// Workers bounds the campaign matrix's worker pool running a
	// program's (spec, trial) cells (default 1; results are identical at
	// any worker count).
	Workers int
	// Grammar names the progen grammar to draw from ("core", "chan",
	// "sync", "all"; default "core").
	Grammar string
	// BudgetPolicy, when non-empty, runs each program's matrix under the
	// named adaptive allocation policy (campaign.Config.Budgeter):
	// the pool of Budget x Trials executions per spec is reallocated
	// across the (spec, program) cells every epoch, and a cell's share
	// splits across its live trials. Results stay a pure function of
	// (seed, options) at any worker count.
	BudgetPolicy string
	// BudgetEpochs is the number of allocation epochs under BudgetPolicy
	// (default budget.DefaultEpochs).
	BudgetEpochs int
	// Telemetry, if non-nil, receives conformance metrics and events.
	Telemetry telemetry.Sink
	// Progress, if non-nil, is called after each checked program.
	Progress func(done, total int)
}

func (o *Options) fill() {
	if o.Programs <= 0 {
		o.Programs = 50
	}
	if len(o.Specs) == 0 {
		o.Specs = strategy.Names()
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Budget <= 0 {
		o.Budget = 300
	}
	if o.GTBudget <= 0 {
		o.GTBudget = 60000
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 4096
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Grammar == "" {
		o.Grammar = "core"
	}
	f, err := progen.ParseGrammar(o.Grammar)
	if err != nil {
		panic(fmt.Sprintf("conformance: %v", err))
	}
	o.Grammar = progen.GrammarName(f)
	if o.BudgetPolicy == "" {
		o.BudgetEpochs = 0
	} else {
		bc := budget.Config{Policy: o.BudgetPolicy, Epochs: o.BudgetEpochs}
		if err := bc.Validate(); err != nil {
			panic(fmt.Sprintf("conformance: %v", err))
		}
		if o.BudgetEpochs <= 0 {
			o.BudgetEpochs = budget.DefaultEpochs
		}
	}
}

// GroundTruth is one program's enumerated behavior set.
type GroundTruth struct {
	pairs     map[string]struct{} // RFPair strings
	failures  map[string]struct{} // failureKey strings
	finals    map[string]struct{} // finalKey strings
	execs     int
	truncated bool
}

func newGroundTruth() *GroundTruth {
	return &GroundTruth{
		pairs:    make(map[string]struct{}),
		failures: make(map[string]struct{}),
		finals:   make(map[string]struct{}),
	}
}

// add folds one enumerated execution into the set.
func (b *GroundTruth) add(res *exec.Result) {
	b.execs++
	for _, p := range res.Trace.RFPairs() {
		b.pairs[p.String()] = struct{}{}
	}
	switch {
	case res.Failure != nil:
		b.failures[failureKey(res.Failure)] = struct{}{}
	case res.Truncated:
		b.truncated = true
	default:
		b.finals[finalKey(res.Trace)] = struct{}{}
	}
}

// Pairs returns the program's reachable rf-pairs, as RFPair strings.
func (b *GroundTruth) Pairs() map[string]struct{} { return b.pairs }

// failureKey canonicalizes a failure for set membership. Every component
// is deterministic for a fixed schedule: kinds and locations trivially,
// messages because assert messages are rendered from the AST and
// deadlock messages from the blocked threads' deterministic state.
func failureKey(f *exec.Failure) string {
	return fmt.Sprintf("%s|t%d|%s|%s", f.Kind, f.Thread, f.Loc, f.Msg)
}

// finalKey canonicalizes a terminated execution's final state: the
// values of main's sequential post-join reads (progen emits one per
// variable at loc "main.final.<i>").
func finalKey(tr *exec.Trace) string {
	var b strings.Builder
	for _, e := range tr.Events {
		if e.Op.IsRead() && strings.HasPrefix(e.Loc, "main.final.") {
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%d", e.VarStr, e.Val)
		}
	}
	return b.String()
}

// Violation is one invariant breach.
type Violation struct {
	// Program and Tool locate the breach; Tool is empty for generator-
	// level breaches.
	Program string
	Tool    string
	// Kind is "rf-pair", "failure", "final-state", "replay", or
	// "trial-error".
	Kind string
	// Detail describes the offending behavior.
	Detail string
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", v.Program, v.Tool, v.Kind, v.Detail)
}

// collector is the per-(program, spec, trial) result observer: it
// checks soundness online and records coverage.
type collector struct {
	gt         *GroundTruth
	execs      int
	seen       map[string]struct{} // all distinct pairs observed
	coverTimes []int               // first-cover execution index, GT pairs only
	violations []Violation
	program    string
	tool       string
}

func newCollector(gt *GroundTruth, program, tool string) *collector {
	return &collector{gt: gt, seen: make(map[string]struct{}), program: program, tool: tool}
}

// observe implements campaign.ResultObserver. It must copy everything it
// keeps: the trace is recycled after it returns.
func (c *collector) observe(res *exec.Result) {
	c.execs++
	for _, p := range res.Trace.RFPairs() {
		key := p.String()
		if _, dup := c.seen[key]; dup {
			continue
		}
		c.seen[key] = struct{}{}
		if _, ok := c.gt.pairs[key]; ok {
			c.coverTimes = append(c.coverTimes, c.execs)
		} else {
			c.violations = append(c.violations, Violation{
				Program: c.program, Tool: c.tool, Kind: "rf-pair",
				Detail: fmt.Sprintf("observed %s outside the enumerated set", key),
			})
		}
	}
	switch {
	case res.Failure != nil:
		key := failureKey(res.Failure)
		if _, ok := c.gt.failures[key]; !ok {
			c.violations = append(c.violations, Violation{
				Program: c.program, Tool: c.tool, Kind: "failure",
				Detail: fmt.Sprintf("observed failure %q outside the enumerated set", key),
			})
		}
	case res.Truncated:
		// A truncated run is a tree-path prefix: its rf-pairs are inside
		// the enumerated set (checked above), but it reaches no final
		// state to check.
	default:
		key := finalKey(res.Trace)
		if _, ok := c.gt.finals[key]; !ok {
			c.violations = append(c.violations, Violation{
				Program: c.program, Tool: c.tool, Kind: "final-state",
				Detail: fmt.Sprintf("reached final state {%s} outside the enumerated set", key),
			})
		}
	}
}

// replayCheck verifies the no-false-bugs invariant for the trial's
// failure (out.Failure): serialize its crash artifact, decode it back,
// replay its decision sequence, and demand the identical failure.
func (c *collector) replayCheck(out campaign.Outcome, body exec.Program, maxSteps int) (replays, failed int) {
	if out.Failure == nil {
		return 0, 0
	}
	want := failureKey(out.Failure.Failure)
	violation := func(detail string) (int, int) {
		c.violations = append(c.violations, Violation{
			Program: c.program, Tool: c.tool, Kind: "replay", Detail: detail,
		})
		return 1, 1
	}
	data, err := json.Marshal(out.Artifact(c.program))
	if err != nil {
		return violation(fmt.Sprintf("artifact marshal failed: %v", err))
	}
	art, err := core.DecodeArtifact(data)
	if err != nil {
		return violation(fmt.Sprintf("artifact round-trip failed: %v", err))
	}
	res := exec.Run(c.program, body, exec.Config{
		Scheduler: sched.NewReplay(art.ThreadOrder()),
		MaxSteps:  maxSteps,
	})
	if res.Failure == nil || failureKey(res.Failure) != want {
		got := "no failure"
		if res.Failure != nil {
			got = failureKey(res.Failure)
		}
		return violation(fmt.Sprintf("decisions replayed to %q, want %q", got, want))
	}
	return 1, 0
}

// Checkpoints returns the coverage sampling points for a budget: powers
// of two up to the budget, then the budget itself. A non-positive
// budget yields the single checkpoint [budget].
func Checkpoints(budget int) []int {
	var cp []int
	for b := 1; b < budget; b *= 2 {
		cp = append(cp, b)
	}
	return append(cp, budget)
}

// CoverageAt folds first-cover execution indexes into per-checkpoint
// covered fractions (0..1). An empty ground truth yields all zeros:
// there is nothing to cover, so no tool gets credit.
func CoverageAt(cp []int, coverTimes []int, gtPairs int) []float64 {
	out := make([]float64, len(cp))
	if gtPairs == 0 {
		return out
	}
	for i, bound := range cp {
		n := 0
		for _, t := range coverTimes {
			if t <= bound {
				n++
			}
		}
		out[i] = float64(n) / float64(gtPairs)
	}
	return out
}

// candidatesPerProgram caps the generator candidates a Workload draws
// at this many per requested program, guarding against a pathological
// skip rate.
const candidatesPerProgram = 6

// ErrGaveUp is Workload's error when it draws its candidate cap before
// enough programs enumerate.
var ErrGaveUp = errors.New("candidate cap reached")

// Workload draws programs from the generator stream of (seed,
// features) and enumerates each candidate's complete behavior set with
// the systematic explorer. It calls check on every candidate whose
// decision tree enumerates completely within gtBudget executions,
// without truncating at maxSteps, and that keep (if non-nil) accepts,
// until n programs were checked. Every other candidate is skipped —
// it must not be compared against — and the stream continues, so the
// checked programs are a pure function of the arguments.
//
// A cancelled ctx stops Workload between candidates with ctx's error.
// After 6 x n candidates it stops with ErrGaveUp. checked and skipped
// count the candidates consumed so far.
func Workload(ctx context.Context, seed int64, features progen.Features, n, gtBudget, maxSteps int,
	keep func(*GroundTruth) bool, check func(bench.Program, *GroundTruth)) (checked, skipped int, err error) {
	gen := progen.NewGenerator(seed, features)
	for checked < n {
		if err := ctx.Err(); err != nil {
			return checked, skipped, err
		}
		if checked+skipped >= candidatesPerProgram*n {
			return checked, skipped, ErrGaveUp
		}
		bp := gen.Next().Bench()
		gt := newGroundTruth()
		gtRep := systematic.ExploreContext(ctx, bp.Name, bp.Body, systematic.ExploreOptions{
			MaxExecutions: gtBudget,
			MaxSteps:      maxSteps,
			OnExecution:   gt.add,
		})
		if !gtRep.Complete || gt.truncated || (keep != nil && !keep(gt)) {
			skipped++
			continue
		}
		check(bp, gt)
		checked++
	}
	return checked, skipped, nil
}

// Run executes a conformance run to completion.
func Run(opts Options) *Report { return RunContext(context.Background(), opts) }

// RunContext executes a conformance run under ctx. Cancellation stops
// the run between executions; the returned report covers the programs
// completed so far and records the abort. For a fixed (seed, options)
// an uninterrupted run's report is bit-identical across repetitions and
// worker counts.
func RunContext(ctx context.Context, opts Options) *Report {
	opts.fill()
	return run(ctx, opts, strategy.Config{})
}

// run checks the filled opts. Every program's matrix runs opts.Specs
// through strategy.RunMatrix on a copy of base, which configures the
// resolved tools (a test passes Shards to check sharded RFF).
func run(ctx context.Context, opts Options, base strategy.Config) *Report {
	rep := &Report{
		Seed:         opts.Seed,
		Grammar:      opts.Grammar,
		Budget:       opts.Budget,
		GTBudget:     opts.GTBudget,
		Trials:       opts.Trials,
		BudgetPolicy: opts.BudgetPolicy,
		BudgetEpochs: opts.BudgetEpochs,
		Checkpoints:  Checkpoints(opts.Budget),
	}
	// Resolve every spec once up front: validates them, fixes the
	// canonical tool-name order of the report, and fails fast on an
	// unknown spec. Every program's matrix resolves these same tools.
	tools, err := strategy.ResolveAll(opts.Specs, base)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	for i, t := range tools {
		rep.Tools = append(rep.Tools, ToolReport{
			Tool:     t.Name(),
			Spec:     opts.Specs[i],
			Coverage: make([]float64, len(rep.Checkpoints)),
		})
	}
	cfg := base
	cfg.Trials = opts.Trials
	cfg.Budget = opts.Budget
	cfg.MaxSteps = opts.MaxSteps
	cfg.BaseSeed = opts.Seed
	cfg.Workers = opts.Workers
	if opts.BudgetPolicy != "" {
		cfg.Budgeter = &budget.Config{Policy: opts.BudgetPolicy, Epochs: opts.BudgetEpochs}
	}
	features, _ := progen.ParseGrammar(opts.Grammar) // validated by fill
	// ttfbTimes holds each tool's first-bug execution indexes.
	ttfbTimes := make([][]float64, len(tools))

	_, skipped, err := Workload(ctx, opts.Seed, features, opts.Programs, opts.GTBudget, opts.MaxSteps, nil, func(bp bench.Program, gt *GroundTruth) {
		rep.GTExecutions += int64(gt.execs)
		rep.GTPairs += int64(len(gt.pairs))
		rep.GTFailures += int64(len(gt.failures))
		rep.GTFinals += int64(len(gt.finals))

		// One matrix over the program: every (tool, trial) cell runs
		// under its own collector, created the first time the matrix
		// asks for it, which persists across epochs so its first-cover
		// indexes stay cumulative per trial.
		type cell struct {
			tool  string
			trial int
		}
		cols := make(map[cell]*collector)
		collectorOf := func(tool string, trial int) *collector {
			c := cols[cell{tool, trial}]
			if c == nil {
				c = newCollector(gt, bp.Name, tool)
				cols[cell{tool, trial}] = c
			}
			return c
		}
		cfg.Observe = func(tool, _ string, trial int) campaign.ResultObserver {
			return collectorOf(tool, trial).observe
		}
		m, err := strategy.RunMatrix(ctx, opts.Specs, []bench.Program{bp}, cfg)
		if err != nil {
			// The specs resolved above and fill validated the policy.
			panic(fmt.Sprintf("conformance: %v", err))
		}

		// Merge barrier: fold trials into the report in matrix order.
		for si, tl := range tools {
			tr := &rep.Tools[si]
			if br := m.BudgetReport; br != nil {
				tr.Allocated += br.Cells[si].Allocated
			}
			for ti, out := range m.Outcomes[tl.Name()][bp.Name] {
				col := collectorOf(tl.Name(), ti)
				if out.Errored() {
					col.violations = append(col.violations, Violation{
						Program: bp.Name, Tool: col.tool, Kind: "trial-error", Detail: out.Err,
					})
				}
				replays, replayFailures := col.replayCheck(out, bp.Body, opts.MaxSteps)
				coverage := CoverageAt(rep.Checkpoints, col.coverTimes, len(gt.pairs))
				tr.TrialsRun++
				tr.Executions += int64(col.execs)
				if out.Found() {
					tr.BugsFound++
					ttfbTimes[si] = append(ttfbTimes[si], float64(out.FirstBug))
				}
				tr.Replays += replays
				tr.ReplayFailures += replayFailures
				rep.Violations = append(rep.Violations, col.violations...)
				for j, f := range coverage {
					tr.Coverage[j] += f
				}
				if t := opts.Telemetry; t != nil {
					lbl := telemetry.L("tool", col.tool)
					if n := len(col.violations); n > 0 {
						t.Add(telemetry.MConformanceViolations, int64(n), lbl)
					}
					if replays > 0 {
						t.Add(telemetry.MConformanceReplays, int64(replays), lbl)
					}
					if replayFailures > 0 {
						t.Add(telemetry.MConformanceReplayFailures, int64(replayFailures), lbl)
					}
					t.Observe(telemetry.MConformanceCoverage, int64(coverage[len(coverage)-1]*100), lbl)
				}
			}
		}

		rep.Programs++
		if t := opts.Telemetry; t != nil {
			t.Add(telemetry.MConformancePrograms, 1)
			t.Emit(telemetry.EvConformanceProgram, telemetry.Fields{
				"program":     bp.Name,
				"threads":     bp.Threads,
				"gt_execs":    gt.execs,
				"gt_pairs":    len(gt.pairs),
				"gt_failures": len(gt.failures),
				"gt_finals":   len(gt.finals),
			})
		}
		if opts.Progress != nil {
			opts.Progress(rep.Programs, opts.Programs)
		}
	})
	rep.Skipped = skipped
	if t := opts.Telemetry; t != nil && skipped > 0 {
		t.Add(telemetry.MConformanceSkipped, int64(skipped))
	}
	switch {
	case errors.Is(err, ErrGaveUp):
		rep.Err = fmt.Sprintf("gave up after %d candidates (%d checked, %d skipped): decision trees too wide for the ground-truth budget %d",
			rep.Programs+skipped, rep.Programs, skipped, opts.GTBudget)
	case err != nil:
		rep.Err = fmt.Sprintf("aborted after %d programs: %v", rep.Programs, err)
	}

	// Normalize coverage sums into means, and fold first-bug times into
	// the shared TTFB summary.
	for si := range rep.Tools {
		if n := rep.Tools[si].TrialsRun; n > 0 {
			for j := range rep.Tools[si].Coverage {
				rep.Tools[si].Coverage[j] = rep.Tools[si].Coverage[j] / float64(n) * 100
			}
		}
		rep.Tools[si].TTFB = NewTTFB(ttfbTimes[si])
	}
	if t := opts.Telemetry; t != nil {
		for _, v := range rep.Violations {
			t.Emit(telemetry.EvConformanceViolation, telemetry.Fields{
				"program": v.Program,
				"tool":    v.Tool,
				"kind":    v.Kind,
				"detail":  v.Detail,
			})
		}
	}
	return rep
}
