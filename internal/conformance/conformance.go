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
// stream continues), so a run checks exactly Options.Programs programs
// and remains a pure function of (seed, options).
package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/fleet"
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
	// ones always run once (default 1).
	Trials int
	// Budget is the schedule budget per trial (default 300).
	Budget int
	// GTBudget caps the ground-truth enumeration per program; programs
	// that do not enumerate completely within it are skipped
	// (default 60000).
	GTBudget int
	// MaxSteps bounds every execution, ground truth and trials alike
	// (default 4096).
	MaxSteps int
	// Workers bounds the fleet pool running a program's (spec, trial)
	// cells (default 1; results are identical at any worker count).
	Workers int
	// MaxCandidates caps generator candidates consumed, guarding against
	// a pathological skip rate (default 6x Programs).
	MaxCandidates int
	// Gen bounds the program grammar (see progen.Options).
	Gen progen.Options
	// Grammar names the progen grammar to draw from ("core", "chan",
	// "sync", "all"; default "core"). A non-empty value overrides
	// Gen.Features.
	Grammar string
	// BudgetPolicy, when non-empty, replaces the fixed per-cell budget
	// with an adaptive epoch allocator (see internal/budget): each
	// program's (spec, trial) cells share a pool of Budget x cells
	// executions, reallocated every epoch by the named policy. Results
	// stay a pure function of (seed, options) at any worker count.
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
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = 6 * o.Programs
	}
	if o.Grammar != "" {
		f, err := progen.ParseGrammar(o.Grammar)
		if err != nil {
			panic(fmt.Sprintf("conformance: %v", err))
		}
		o.Gen.Features = f
	}
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

// behaviorSet is one program's enumerated ground truth.
type behaviorSet struct {
	pairs     map[string]struct{} // RFPair strings
	failures  map[string]struct{} // failureKey strings
	finals    map[string]struct{} // finalKey strings
	execs     int
	truncated bool
}

func newBehaviorSet() *behaviorSet {
	return &behaviorSet{
		pairs:    make(map[string]struct{}),
		failures: make(map[string]struct{}),
		finals:   make(map[string]struct{}),
	}
}

// add folds one enumerated execution into the set.
func (b *behaviorSet) add(res *exec.Result) {
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

// observedFailure is one failure a trial reported, with everything the
// replay check needs.
type observedFailure struct {
	failure   exec.Failure
	decisions []exec.ThreadID
	seed      int64
	execution int
}

// collector is the per-(program, spec, trial) result observer: it
// checks soundness online and records coverage and failures.
type collector struct {
	gt         *behaviorSet
	execs      int
	seen       map[string]struct{} // all distinct pairs observed
	coverTimes []int               // first-cover execution index, GT pairs only
	violations []Violation
	failures   []observedFailure
	program    string
	tool       string
}

func newCollector(gt *behaviorSet, program, tool string) *collector {
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
		c.failures = append(c.failures, observedFailure{
			failure:   *res.Failure,
			decisions: res.Trace.ThreadOrder(),
			seed:      res.Seed,
			execution: c.execs,
		})
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

// replayCheck verifies the no-false-bugs invariant for every failure the
// trial observed: serialize a crash artifact, decode it back, replay its
// decision sequence, and demand the identical failure.
func (c *collector) replayCheck(body exec.Program, maxSteps int) (replays, failed int) {
	for _, of := range c.failures {
		replays++
		f := of.failure
		art := core.NewArtifact(c.program, core.FailureRecord{
			Seed:      of.seed,
			Execution: of.execution,
			Failure:   &f,
			Decisions: of.decisions,
		})
		data, err := json.Marshal(art)
		if err != nil {
			failed++
			c.violations = append(c.violations, Violation{
				Program: c.program, Tool: c.tool, Kind: "replay",
				Detail: fmt.Sprintf("artifact marshal failed: %v", err),
			})
			continue
		}
		art2, err := core.DecodeArtifact(data)
		if err != nil {
			failed++
			c.violations = append(c.violations, Violation{
				Program: c.program, Tool: c.tool, Kind: "replay",
				Detail: fmt.Sprintf("artifact round-trip failed: %v", err),
			})
			continue
		}
		res := exec.Run(c.program, body, exec.Config{
			Scheduler: sched.NewReplay(art2.ThreadOrder()),
			MaxSteps:  maxSteps,
		})
		if res.Failure == nil || failureKey(res.Failure) != failureKey(&f) {
			failed++
			got := "no failure"
			if res.Failure != nil {
				got = failureKey(res.Failure)
			}
			c.violations = append(c.violations, Violation{
				Program: c.program, Tool: c.tool, Kind: "replay",
				Detail: fmt.Sprintf("decisions replayed to %q, want %q", got, failureKey(&f)),
			})
		}
	}
	return replays, failed
}

// cellResult is one (spec, trial) cell's contribution to the report.
type cellResult struct {
	tool           string
	executions     int
	foundBug       bool
	replays        int
	replayFailures int
	violations     []Violation
	// coverage[i] is the fraction (0..1) of ground-truth rf-pairs
	// covered by checkpoint i.
	coverage []float64
	// firstBug is the 1-based execution index of the cell's first
	// observed failure; 0 if the cell found no bug.
	firstBug int
	// allocated is the execution budget the adaptive allocator granted
	// the cell; 0 under fixed budgets.
	allocated int64
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

// EnumeratePairs enumerates a program's complete rf-pair ground truth
// with the systematic explorer. ok is false when the decision tree did
// not enumerate completely within gtBudget (or an execution truncated
// at maxSteps) — such programs must be skipped, not compared against.
func EnumeratePairs(ctx context.Context, name string, body exec.Program, gtBudget, maxSteps int) (pairs map[string]struct{}, ok bool) {
	gt := newBehaviorSet()
	gtRep := systematic.ExploreContext(ctx, name, body, systematic.ExploreOptions{
		MaxExecutions: gtBudget,
		MaxSteps:      maxSteps,
		OnExecution:   gt.add,
	})
	if !gtRep.Complete || gt.truncated {
		return nil, false
	}
	return gt.pairs, true
}

// firstBugOf extracts a collector's first-bug execution index (0 when
// the cell observed no failure).
func firstBugOf(col *collector) int {
	if len(col.failures) == 0 {
		return 0
	}
	return col.failures[0].execution
}

// toolSlot is one resolved strategy spec of a run.
type toolSlot struct {
	spec   string
	name   string
	trials int
}

// progCellID addresses one (spec, trial) cell of one program.
type progCellID struct{ slot, trial int }

// runProgramBudgeted runs one program's (spec, trial) cells under an
// epoch allocator. The cells share a pool of Budget x len(ids)
// executions; each epoch the policy reallocates the epoch's slice by
// observed reward (marginal ground-truth rf-pair coverage and first-bug
// events). Without a BudgetPolicy the pool is spent as one uniform
// epoch, which hands every cell exactly Budget executions: the fixed
// per-cell budget. Collectors persist across epochs, so coverage
// first-cover indexes remain cumulative per cell. Cells stop (and
// release their budget) on their first failure, infrastructure error,
// or recovered panic.
//
// The allocator and every epoch's trial seeds derive from (Seed,
// program, cell) alone, so the result is a pure function of (seed,
// options) at any worker count.
func runProgramBudgeted(ctx context.Context, opts Options, cp []int, slots []toolSlot, ids []progCellID, bp bench.Program, gt *behaviorSet) []fleet.Result[cellResult] {
	cols := make([]*collector, len(ids))
	for i, id := range ids {
		cols[i] = newCollector(gt, bp.Name, slots[id.slot].name)
	}
	done := make([]bool, len(ids))
	cellErr := make([]error, len(ids))
	bugSeen := make([]bool, len(ids))
	prevExecs := make([]int, len(ids))
	prevCovers := make([]int, len(ids))

	bc := budget.Config{Policy: "uniform", Epochs: 1}
	if opts.BudgetPolicy != "" {
		bc = budget.Config{Policy: opts.BudgetPolicy, Epochs: opts.BudgetEpochs}
	}
	// fill() validated the config; New cannot fail here.
	allocSeed := campaign.TrialSeed(opts.Seed, "budget-allocator", bp.Name, 0)
	alloc, err := budget.New(len(ids), allocSeed, bc)
	if err != nil {
		panic(fmt.Sprintf("conformance: %v", err))
	}
	alloc.Spend(ctx, int64(opts.Budget)*int64(len(ids)), func(e, _ int, shares []int) []budget.Yield {
		type job struct{ cell, share int }
		var jobs []job
		for i, s := range shares {
			if s > 0 {
				jobs = append(jobs, job{i, s})
			}
		}
		cells := make([]fleet.Cell[campaign.Outcome], len(jobs))
		for k, j := range jobs {
			j := j
			id := ids[j.cell]
			slot := slots[id.slot]
			col := cols[j.cell]
			cells[k] = fleet.Cell[campaign.Outcome]{
				ID:   fmt.Sprintf("%s/%s[%d]@e%d", slot.name, bp.Name, id.trial, e),
				Spec: slot.name,
				Run: func(cctx context.Context, _ *fleet.Scratch) (campaign.Outcome, error) {
					tool, err := strategy.Resolve(slot.spec, strategy.Config{Observer: col.observe})
					if err != nil {
						return campaign.Outcome{}, err
					}
					seed := budget.EpochSeed(campaign.TrialSeed(opts.Seed, slot.name, bp.Name, id.trial), e)
					return tool.Run(cctx, bp, j.share, opts.MaxSteps, seed), nil
				},
			}
		}
		res := fleet.Run(ctx, cells, fleet.Options{Workers: opts.Workers})

		// Epoch barrier: fold outcomes and report every cell's yield,
		// both in deterministic cell order.
		for k, r := range res {
			i := jobs[k].cell
			if r.Err != nil {
				cellErr[i] = r.Err
				done[i] = true
				continue
			}
			if out := r.Value; out.Errored() {
				cols[i].violations = append(cols[i].violations, Violation{
					Program: bp.Name, Tool: cols[i].tool, Kind: "trial-error", Detail: out.Err,
				})
				done[i] = true
			}
		}
		ys := make([]budget.Yield, len(ids))
		for i, col := range cols {
			first := false
			if !bugSeen[i] && len(col.failures) > 0 {
				bugSeen[i] = true
				first = true
				done[i] = true
			}
			ys[i] = budget.Yield{
				Reward: budget.Reward{
					Executions: col.execs - prevExecs[i],
					NewPairs:   len(col.coverTimes) - prevCovers[i],
					FirstBug:   first,
				},
				Done: done[i],
			}
			prevExecs[i] = col.execs
			prevCovers[i] = len(col.coverTimes)
		}
		return ys
	})

	states := alloc.Cells()
	out := make([]fleet.Result[cellResult], len(ids))
	for i := range ids {
		if cellErr[i] != nil {
			out[i] = fleet.Result[cellResult]{Err: cellErr[i]}
			continue
		}
		col := cols[i]
		replays, failedReplays := col.replayCheck(bp.Body, opts.MaxSteps)
		c := cellResult{
			tool:           col.tool,
			executions:     col.execs,
			foundBug:       len(col.failures) > 0,
			replays:        replays,
			replayFailures: failedReplays,
			violations:     col.violations,
			coverage:       CoverageAt(cp, col.coverTimes, len(gt.pairs)),
			firstBug:       firstBugOf(col),
		}
		if opts.BudgetPolicy != "" {
			c.allocated = states[i].Allocated
		}
		out[i] = fleet.Result[cellResult]{Value: c}
	}
	return out
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
	rep := &Report{
		Seed:         opts.Seed,
		Grammar:      progen.GrammarName(opts.Gen.Features),
		Budget:       opts.Budget,
		GTBudget:     opts.GTBudget,
		Trials:       opts.Trials,
		BudgetPolicy: opts.BudgetPolicy,
		BudgetEpochs: opts.BudgetEpochs,
		Checkpoints:  Checkpoints(opts.Budget),
	}

	// Resolve every spec once up front: validates them, fixes the
	// canonical tool-name order of the report, and fails fast on an
	// unknown spec.
	var slots []toolSlot
	for _, spec := range opts.Specs {
		t, err := strategy.Resolve(spec, strategy.Config{})
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		trials := opts.Trials
		if t.Deterministic() {
			trials = 1
		}
		slots = append(slots, toolSlot{spec: spec, name: t.Name(), trials: trials})
		rep.Tools = append(rep.Tools, ToolReport{
			Tool:     t.Name(),
			Spec:     spec,
			Coverage: make([]float64, len(rep.Checkpoints)),
		})
	}

	gen := progen.NewGenerator(opts.Seed, opts.Gen)
	coverSamples := make([]int, len(slots))    // per-tool (program, trial) sample counts
	ttfbTimes := make([][]float64, len(slots)) // per-tool first-bug execution indexes

	for rep.Programs < opts.Programs {
		if ctx.Err() != nil {
			rep.Err = fmt.Sprintf("aborted after %d programs: %v", rep.Programs, ctx.Err())
			break
		}
		if rep.Programs+rep.Skipped >= opts.MaxCandidates {
			rep.Err = fmt.Sprintf("gave up after %d candidates (%d checked, %d skipped): decision trees too wide for the ground-truth budget %d",
				opts.MaxCandidates, rep.Programs, rep.Skipped, opts.GTBudget)
			break
		}
		p := gen.Next()
		bp := p.Bench()

		// Ground truth: enumerate the complete behavior set.
		gt := newBehaviorSet()
		gtRep := systematic.ExploreContext(ctx, bp.Name, bp.Body, systematic.ExploreOptions{
			MaxExecutions: opts.GTBudget,
			MaxSteps:      opts.MaxSteps,
			OnExecution:   gt.add,
		})
		if !gtRep.Complete || gt.truncated {
			rep.Skipped++
			if t := opts.Telemetry; t != nil {
				t.Add(telemetry.MConformanceSkipped, 1)
			}
			continue
		}
		rep.GTExecutions += int64(gt.execs)
		rep.GTPairs += int64(len(gt.pairs))
		rep.GTFailures += int64(len(gt.failures))
		rep.GTFinals += int64(len(gt.finals))

		// Every (spec, trial) cell, on the fleet pool; merge in cell
		// order keeps the report deterministic at any worker count.
		var ids []progCellID
		for si, slot := range slots {
			for tr := 0; tr < slot.trials; tr++ {
				ids = append(ids, progCellID{si, tr})
			}
		}
		results := runProgramBudgeted(ctx, opts, rep.Checkpoints, slots, ids, bp, gt)

		// Merge barrier: fold cells into the report in deterministic
		// cell order.
		for i, r := range results {
			tr := &rep.Tools[ids[i].slot]
			if r.Err != nil {
				rep.Violations = append(rep.Violations, Violation{
					Program: bp.Name, Tool: slots[ids[i].slot].name, Kind: "trial-error",
					Detail: r.Err.Error(),
				})
				continue
			}
			c := r.Value
			tr.TrialsRun++
			tr.Executions += int64(c.executions)
			if c.foundBug {
				tr.BugsFound++
			}
			tr.Replays += c.replays
			tr.ReplayFailures += c.replayFailures
			tr.Allocated += c.allocated
			if c.firstBug > 0 {
				ttfbTimes[ids[i].slot] = append(ttfbTimes[ids[i].slot], float64(c.firstBug))
			}
			rep.Violations = append(rep.Violations, c.violations...)
			for j, f := range c.coverage {
				tr.Coverage[j] += f
			}
			coverSamples[ids[i].slot]++
			if t := opts.Telemetry; t != nil {
				lbl := telemetry.L("tool", c.tool)
				if n := len(c.violations); n > 0 {
					t.Add(telemetry.MConformanceViolations, int64(n), lbl)
				}
				if c.replays > 0 {
					t.Add(telemetry.MConformanceReplays, int64(c.replays), lbl)
				}
				if c.replayFailures > 0 {
					t.Add(telemetry.MConformanceReplayFailures, int64(c.replayFailures), lbl)
				}
				t.Observe(telemetry.MConformanceCoverage, int64(c.coverage[len(c.coverage)-1]*100), lbl)
			}
		}

		rep.Programs++
		if t := opts.Telemetry; t != nil {
			t.Add(telemetry.MConformancePrograms, 1)
			t.Emit(telemetry.EvConformanceProgram, telemetry.Fields{
				"program":     bp.Name,
				"threads":     len(p.Threads),
				"gt_execs":    gt.execs,
				"gt_pairs":    len(gt.pairs),
				"gt_failures": len(gt.failures),
				"gt_finals":   len(gt.finals),
			})
		}
		if opts.Progress != nil {
			opts.Progress(rep.Programs, opts.Programs)
		}
	}

	// Normalize coverage sums into means, and fold first-bug times into
	// the shared TTFB summary.
	for si := range rep.Tools {
		if n := coverSamples[si]; n > 0 {
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
