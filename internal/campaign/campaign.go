// Package campaign runs the evaluation matrix: every (tool, program,
// trial) combination with a schedule budget, collecting schedules-to-
// first-bug outcomes. It is the engine behind the Figure 4 curves, the
// Appendix B table, and the RQ2/RQ4 comparisons.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/shard"
	"rff/internal/stats"
	"rff/internal/telemetry"
)

// Outcome is the result of one campaign trial.
type Outcome struct {
	// FirstBug is the number of schedules until the first failure
	// (0 = no bug found within the budget).
	FirstBug int
	// Executions is the number of schedules actually run.
	Executions int
	// Budget is the schedule budget the trial ran under: its fixed
	// entitlement, or under a Budgeter the executions it was spent
	// across epochs. An unfound trial is censored here.
	Budget int
	// CorpusSize and UniqueSigs carry the greybox fuzzer's final
	// feedback state (zero for tools without a corpus); the parallel-
	// determinism golden tests compare them across worker counts, so a
	// merge bug that perturbs anything beyond the first-bug schedule
	// still trips.
	CorpusSize int
	UniqueSigs int
	// Err records an infrastructure failure — e.g. a panic recovered
	// inside the tool, or a cancelled trial deadline — that aborted the
	// trial. Such trials count as censored no-bug outcomes in the
	// statistics.
	Err string
	// Stack is the recovered panic's stack trace (scrubbed of its
	// nondeterministic goroutine header), empty unless the trial
	// panicked.
	Stack string
	// Failure is the trial's first failing execution (Algorithm 1's
	// S_fail: every tool stops at its first bug), set if and only if
	// Found. Its Seed, Failure and Decisions reproduce it; Artifact
	// serializes exactly those. It stays out of the JSON form, so
	// stored matrices and reports carry no traces.
	Failure *core.FailureRecord `json:"-"`
}

// Found reports whether the trial exposed the bug.
func (o Outcome) Found() bool { return o.FirstBug > 0 }

// Artifact returns the crash artifact of the trial's first failure in
// program: the execution seed, the failure and the replay decisions.
// It returns nil when the trial found no bug.
func (o Outcome) Artifact(program string) *core.Artifact {
	if o.Failure == nil {
		return nil
	}
	return core.NewArtifact(program, core.FailureRecord{
		Seed:      o.Failure.Seed,
		Failure:   o.Failure.Failure,
		Decisions: o.Failure.Decisions,
	})
}

// Errored reports whether the trial aborted with an infrastructure
// failure instead of running to its budget.
func (o Outcome) Errored() bool { return o.Err != "" }

// Sample converts the outcome to a survival observation (censored at the
// budget when no bug was found).
func (o Outcome) Sample() stats.Sample {
	if o.Found() {
		return stats.Sample{Time: float64(o.FirstBug), Observed: true}
	}
	return stats.Sample{Time: float64(o.Budget), Observed: false}
}

// Tool is one concurrency testing technique under evaluation. Concrete
// tools are constructed exclusively through the internal/strategy
// registry, which resolves parameterized spec strings ("rff", "pct:7",
// ...) to configured Tool values.
type Tool interface {
	// Name identifies the tool in reports ("RFF", "POS", "PCT3", ...).
	// It is the canonical strategy name: seeds, telemetry labels, and
	// result ordering all key on it.
	Name() string
	// Deterministic tools (model checkers) run a single trial.
	Deterministic() bool
	// Run performs one trial on the program. Cancelling ctx stops the
	// trial within one scheduling step; the interrupted trial records an
	// Err and counts as a censored no-bug outcome.
	Run(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64) Outcome
}

// ResultObserver receives every counted execution's result during a trial
// (MatrixOptions.Observe hands one to each matrix cell). Observers run
// before the trace is reclaimed and must not retain it. A trial's
// failure needs no observer: it travels in Outcome.Failure.
type ResultObserver func(res *exec.Result)

// ObservableTool is the optional Tool extension the matrix runner uses
// to watch the executions of the trials it schedules (the Budgeter's
// coverage collector and MatrixOptions.Observe), and strategy.Resolve
// to attach strategy.Config.Observer: WithObserver returns a copy of
// the tool whose runs additionally invoke obs, chained after any
// observer the tool already carries. Every built-in tool implements
// it; in a matrix a tool that does not simply runs unobserved (its
// budget cells earn zero coverage reward).
type ObservableTool interface {
	Tool
	WithObserver(obs ResultObserver) Tool
}

// chainObservers composes two observers, tolerating nil on either side.
func chainObservers(a, b ResultObserver) ResultObserver {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(res *exec.Result) {
		a(res)
		b(res)
	}
}

// splitmix is one splitmix64 scrambling round.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// TrialSeed derives one matrix cell's RNG seed purely from the campaign
// seed and the cell's identity (tool, program, trial index). Because no
// stream position or worker assignment enters the hash, sequential and
// parallel matrix runs — at any worker count and completion order —
// draw identical seeds for identical cells.
func TrialSeed(base int64, tool, program string, trial int) int64 {
	// Scrambling the program hash before folding in the tool hash keeps
	// concatenation collisions and (tool, program) swaps apart.
	h := splitmix(hashString(tool) ^ splitmix(hashString(program)))
	z := splitmix(uint64(base) ^ h)
	z = splitmix(z ^ uint64(uint32(trial)))
	return int64(z)
}

// --- RFF ---------------------------------------------------------------------

// RFFTool runs the core greybox fuzzer.
type RFFTool struct {
	// NoFeedback ablates the greybox feedback (the "RFF w/o feedback"
	// configuration of RQ3).
	NoFeedback bool
	// Telemetry, if non-nil, is threaded into every trial's fuzzer (and
	// through it the execution engine).
	Telemetry telemetry.Sink
	// Observer, if non-nil, sees every counted execution's result,
	// sequential or sharded.
	Observer ResultObserver
	// Shards, when >= 1, runs each trial on the sharded runner
	// (internal/shard) with that many worker shards instead of
	// the sequential fuzzer. The sharded runner is a different — still
	// fully deterministic — algorithm: its reports are bit-identical
	// across reruns and shard counts, but not to the sequential loop's.
	// 0 keeps the sequential fuzzer.
	Shards int
}

// Name implements Tool.
func (t RFFTool) Name() string {
	if t.NoFeedback {
		return "RFF-nofb"
	}
	return "RFF"
}

// Deterministic implements Tool.
func (t RFFTool) Deterministic() bool { return false }

// WithObserver implements ObservableTool.
func (t RFFTool) WithObserver(obs ResultObserver) Tool {
	t.Observer = chainObservers(t.Observer, obs)
	return t
}

// Run implements Tool. Cancelling ctx stops the fuzzer within one
// scheduling step of the in-flight execution; the interrupted trial
// records how far it got and an Err.
func (t RFFTool) Run(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64) Outcome {
	var rep *core.Report
	if t.Shards >= 1 {
		rep = shard.FuzzContext(ctx, p.Name, p.Body, shard.Options{
			Budget:          budget,
			MaxSteps:        maxSteps,
			Seed:            seed,
			DisableFeedback: t.NoFeedback,
			StopAtFirstBug:  true,
			Telemetry:       t.Telemetry,
			ResultObserver:  t.Observer,
			Shards:          t.Shards,
		})
	} else {
		rep = core.NewFuzzer(p.Name, p.Body, core.Options{
			Budget:          budget,
			MaxSteps:        maxSteps,
			Seed:            seed,
			DisableFeedback: t.NoFeedback,
			StopAtFirstBug:  true,
			Telemetry:       t.Telemetry,
			ResultObserver:  t.Observer,
		}).RunContext(ctx)
	}
	out := Outcome{
		FirstBug:   rep.FirstBug,
		Executions: rep.Executions,
		Budget:     budget,
		CorpusSize: rep.CorpusSize,
		UniqueSigs: rep.UniqueSigs,
	}
	if len(rep.Failures) > 0 {
		out.Failure = &rep.Failures[0]
	}
	if err := ctx.Err(); err != nil && rep.FirstBug == 0 && rep.Executions < budget {
		out.Err = fmt.Sprintf("trial aborted after %d schedules: %v", rep.Executions, err)
	}
	return out
}

// --- scheduler-based tools ------------------------------------------------------

// SchedulerTool evaluates a per-execution scheduler: the program is run
// repeatedly until a bug or the budget. The factory is invoked once per
// trial, so cross-execution state accumulates within a trial: PCT's
// length estimates, Q-Learning's Q-tables, and the position of the
// systematic explorers (GenMC*, PERIOD*) in their schedule trees.
type SchedulerTool struct {
	ToolName string
	Factory  func() exec.Scheduler
	// Systematic marks a deterministic enumeration (GenMC*, PERIOD*):
	// Deterministic reports it, so the matrix runs the tool as one
	// trial, and every execution runs at seed 0 — the trial seed is
	// ignored and the exploration is a pure function of the program
	// and budget.
	Systematic bool
	// Telemetry, if non-nil, is threaded into every execution's engine.
	Telemetry telemetry.Sink
	// Observer, if non-nil, sees every counted execution's result.
	Observer ResultObserver
}

// Exhaustible is implemented by schedulers that enumerate a finite tree
// of schedules (the explorers of internal/systematic): each execution's
// End advances them to their next leaf, and Exhausted reports that none
// is left. SchedulerTool checks it after each execution and ends the
// trial, short of its budget, once the tree is used up.
type Exhaustible interface {
	Exhausted() bool
}

// Name implements Tool.
func (t SchedulerTool) Name() string { return t.ToolName }

// Deterministic implements Tool.
func (t SchedulerTool) Deterministic() bool { return t.Systematic }

// WithObserver implements ObservableTool.
func (t SchedulerTool) WithObserver(obs ResultObserver) Tool {
	t.Observer = chainObservers(t.Observer, obs)
	return t
}

// Run implements Tool. Execution i of a randomized tool runs at seed
// budget.EpochSeed(seed, i). ctx is threaded into every execution's
// engine (stopping a cancelled execution within one scheduling step)
// and checked between executions; the interrupted trial records how far
// it got and an Err, counting as a censored no-bug outcome.
func (t SchedulerTool) Run(ctx context.Context, p bench.Program, limit, maxSteps int, seed int64) Outcome {
	s := t.Factory()
	tree, _ := s.(Exhaustible)
	out := Outcome{Budget: limit}
	var labels []telemetry.Label
	if t.Telemetry != nil {
		labels = []telemetry.Label{telemetry.L("tool", t.ToolName), telemetry.L("program", p.Name)}
	}
	// Every summary of the trial resolves through one intern table. The
	// trial never inspects traces after the crash check, so their
	// backing arrays recycle straight into the next execution.
	intern := exec.NewInternTable()
	recycler := exec.NewRecycler()
	for i := 1; i <= limit; i++ {
		if err := ctx.Err(); err != nil {
			out.Err = fmt.Sprintf("trial aborted after %d schedules: %v", out.Executions, err)
			break
		}
		var execSeed int64
		if !t.Systematic {
			execSeed = budget.EpochSeed(seed, i)
		}
		res := exec.Run(p.Name, p.Body, exec.Config{
			Scheduler: s,
			Seed:      execSeed,
			Ctx:       ctx,
			MaxSteps:  maxSteps,
			Telemetry: t.Telemetry,
			Intern:    intern,
			Recycle:   recycler,
		})
		if res.Cancelled {
			// The abandoned partial execution is discarded uncounted.
			recycler.Reclaim(res.Trace)
			out.Err = fmt.Sprintf("trial aborted after %d schedules: %v", out.Executions, ctx.Err())
			break
		}
		out.Executions = i
		if t.Observer != nil {
			t.Observer(res)
		}
		if tel := t.Telemetry; tel != nil {
			tel.Add(telemetry.MSchedulesExecuted, 1, labels...)
			if res.Buggy() {
				tel.Add(telemetry.MSchedulesCrashed, 1, labels...)
			}
		}
		if res.Buggy() {
			// The trial ends here and its recycler with it, so the
			// crashing trace needs no Reclaim.
			out.FirstBug = i
			out.Failure = &core.FailureRecord{Seed: res.Seed, Failure: res.Failure, Decisions: res.Trace.ThreadOrder()}
			break
		}
		recycler.Reclaim(res.Trace)
		if tree != nil && tree.Exhausted() {
			break
		}
	}
	return out
}

// --- matrix runner ----------------------------------------------------------------

// MatrixOptions configures a full evaluation run.
type MatrixOptions struct {
	// Trials per (tool, program); deterministic tools always run once.
	Trials int
	// Budget is the schedule budget per trial.
	Budget int
	// MaxSteps bounds each execution (0 = engine default).
	MaxSteps int
	// BaseSeed makes the whole matrix reproducible: every cell's seed is
	// TrialSeed(BaseSeed, tool, program, trial), so results are
	// bit-identical at any worker count.
	BaseSeed int64
	// Workers caps concurrent trials (0 = GOMAXPROCS).
	Workers int
	// TrialTimeout, if positive, arms a wall-clock deadline on every
	// trial. Every built-in tool stops at the deadline within one
	// scheduling step and records an errored outcome. Note that a
	// timeout makes outcomes wall-clock-dependent — leave it 0 for
	// reproducible matrices.
	TrialTimeout time.Duration
	// Progress, if non-nil, is called after each completed cell of an
	// epoch wave with the wave's (done, total) count. A fixed-budget
	// matrix is a single wave of one cell per trial, so it reports per
	// trial; a budgeted matrix restarts the count every epoch.
	Progress func(done, total int)
	// Telemetry, if non-nil, receives matrix-level metrics (completed
	// trials per tool/program, recovered trial panics, fleet worker
	// metrics) and the campaign event stream: campaign-start, then
	// trial-done or trial_error per trial at the final barrier in matrix
	// order, then campaign-done. The budget series (budget-epoch events,
	// budget_epochs, budget_share_pct, budget_reallocations) are emitted
	// only under a Budgeter.
	Telemetry telemetry.Sink
	// Budgeter, when non-nil, switches the matrix to adaptive budget
	// scheduling: the total execution pool (Budget x Trials x cells) is
	// spent in epochs, reallocated across (tool, program) cells by the
	// named policy from their rf-pair coverage, and the result carries
	// a BudgetReport. Callers must validate the config first
	// (budget.Config.Validate); an invalid policy panics here.
	// TrialTimeout applies per epoch cell rather than per trial in this
	// mode. Nil runs fixed budgets: one uniform epoch.
	Budgeter *budget.Config
	// Observe, if non-nil, is asked once per epoch cell, on the
	// coordinator while it builds the wave, for an observer of that
	// (tool, program, trial) cell's executions; a nil result observes
	// nothing. The observer is chained after the Budgeter's coverage
	// collector through ObservableTool.WithObserver, and runs on the
	// cell's fleet worker. Returning the same observer for every epoch
	// of a trial gives it the trial's whole execution stream. It is for
	// callers that need every execution, as conformance's soundness
	// checks do; a trial's failure is already in Outcome.Failure.
	Observe func(tool, program string, trial int) ResultObserver
}

// MatrixResult holds every trial outcome, indexed by tool then program.
type MatrixResult struct {
	Tools    []string
	Programs []string
	Budget   int
	// Outcomes[tool][program] is the per-trial outcome list.
	Outcomes map[string]map[string][]Outcome
	// BudgetReport records the adaptive allocation schedule; nil for
	// fixed-budget (non-Budgeter) matrices.
	BudgetReport *BudgetReport `json:",omitempty"`
}

// RunMatrix executes the evaluation matrix, parallelizing across trials
// on a fleet worker pool. See RunMatrixContext for the guarantees.
func RunMatrix(tools []Tool, programs []bench.Program, opts MatrixOptions) *MatrixResult {
	return RunMatrixContext(context.Background(), tools, programs, opts)
}

// RunMatrixContext executes the evaluation matrix under ctx. The
// matrix decomposes into independent (tool, program, trial) cells, and
// every matrix is spent by one epoch runner (budgeted.go): without a
// Budgeter the pool runs as one uniform epoch, which hands every cell
// exactly its fixed budget. Each epoch is one fleet wave
// (MatrixOptions.Workers bounds the pool) whose barrier folds the
// completed cells back in matrix order. Every cell draws its seed from
// TrialSeed, no mutable state is shared across workers, and aggregate
// telemetry is merged at the barriers in cell order — so the returned
// MatrixResult is bit-identical at any worker count.
//
// A panicking trial is contained by the pool: its outcome records the
// error and the scrubbed panic stack, and the matrix keeps running.
// Cancelling ctx aborts unstarted cells, whose outcomes read "trial
// aborted after N schedules"; cells already inside a non-interruptible
// tool finish first.
func RunMatrixContext(ctx context.Context, tools []Tool, programs []bench.Program, opts MatrixOptions) *MatrixResult {
	if opts.Trials <= 0 {
		opts.Trials = 1
	}
	if opts.Budget <= 0 {
		opts.Budget = 2000
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return runMatrix(ctx, tools, programs, opts, workers)
}

// TrialErrors lists the trials that aborted with an infrastructure
// error, as "tool/program[trial]: err" strings in matrix order. A trial
// that died in a panic carries its (indented) stack trace after the
// error line.
func (m *MatrixResult) TrialErrors() []string {
	var out []string
	for _, tool := range m.Tools {
		for _, p := range m.Programs {
			for tr, o := range m.Outcomes[tool][p] {
				if !o.Errored() {
					continue
				}
				s := fmt.Sprintf("%s/%s[%d]: %s", tool, p, tr, o.Err)
				if o.Stack != "" {
					s += "\n    " + strings.ReplaceAll(strings.TrimRight(o.Stack, "\n"), "\n", "\n    ")
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// hashString is a small FNV-1a for seed derivation.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Samples returns the survival samples of a (tool, program) cell.
func (m *MatrixResult) Samples(tool, program string) []stats.Sample {
	outs := m.Outcomes[tool][program]
	ss := make([]stats.Sample, len(outs))
	for i, o := range outs {
		ss[i] = o.Sample()
	}
	return ss
}

// MeanStd returns the mean and standard deviation of schedules-to-bug over
// the trials that found the bug, plus how many trials missed it.
func (m *MatrixResult) MeanStd(tool, program string) (mean, std float64, missed int) {
	var xs []float64
	for _, o := range m.Outcomes[tool][program] {
		if o.Found() {
			xs = append(xs, float64(o.FirstBug))
		} else {
			missed++
		}
	}
	return stats.Mean(xs), stats.Std(xs), missed
}

// BugsFoundPerTrial returns, for each trial index, how many programs the
// tool found a bug in — the distribution behind the paper's "finds bugs in
// μ = 46.1 programs" comparison.
func (m *MatrixResult) BugsFoundPerTrial(tool string) []float64 {
	progs := m.Outcomes[tool]
	trials := 0
	for _, outs := range progs {
		if len(outs) > trials {
			trials = len(outs)
		}
	}
	counts := make([]float64, trials)
	for _, outs := range progs {
		for tr, o := range outs {
			if o.Found() {
				counts[tr]++
			}
		}
	}
	return counts
}

// CurvePoint is one step of a cumulative bugs-vs-schedules curve.
type CurvePoint struct {
	Schedules int
	Bugs      int
}

// CumulativeCurve builds the Figure 4 series for a tool: for every trial
// and program where a bug was found, a point at (schedules, cumulative
// bugs found at or below that schedule count), across all trials.
func (m *MatrixResult) CumulativeCurve(tool string) []CurvePoint {
	var times []int
	for _, outs := range m.Outcomes[tool] {
		for _, o := range outs {
			if o.Found() {
				times = append(times, o.FirstBug)
			}
		}
	}
	if len(times) == 0 {
		return nil
	}
	slices.Sort(times)
	pts := make([]CurvePoint, 0, len(times))
	for i, t := range times {
		pts = append(pts, CurvePoint{Schedules: t, Bugs: i + 1})
	}
	return pts
}

// SignificantWins counts the programs where tool a finds bugs in
// significantly fewer schedules than tool b by the log-rank test at the
// paper's alpha of 0.05 — the RQ1/RQ2 per-program comparisons.
func (m *MatrixResult) SignificantWins(a, b string, alpha float64) (aWins, bWins int) {
	for _, p := range m.Programs {
		sa := m.Samples(a, p)
		sb := m.Samples(b, p)
		if stats.SignificantlyFewer(sa, sb, alpha) {
			aWins++
		}
		if stats.SignificantlyFewer(sb, sa, alpha) {
			bWins++
		}
	}
	return
}
