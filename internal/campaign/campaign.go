// Package campaign runs the evaluation matrix: every (tool, program,
// trial) combination with a schedule budget, collecting schedules-to-
// first-bug outcomes. It is the engine behind the Figure 4 curves, the
// Appendix B table, and the RQ2/RQ4 comparisons.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/fleet"
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
	// Budget is the schedule budget the trial ran under.
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
}

// Found reports whether the trial exposed the bug.
func (o Outcome) Found() bool { return o.FirstBug > 0 }

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
// — the hook the conformance harness threads through every tool to compare
// observed behaviors against the systematically enumerated ground truth.
// Observers run before the trace is reclaimed and must not retain it.
type ResultObserver func(res *exec.Result)

// ObservableTool is the optional Tool extension the budgeted matrix
// runner uses to watch the executions of the trials it schedules:
// WithObserver returns a copy of the tool whose runs additionally
// invoke obs, chained after any observer the tool already carries.
// Every built-in tool implements it; a tool that does not simply runs
// unobserved (its budget cells earn zero coverage reward).
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

// subSeed derives a per-execution seed from a trial seed; splitmix64-style
// mixing keeps streams independent across executions.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
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
	// Observer, if non-nil, sees every counted execution's result.
	// Sharded trials (Shards >= 1) narrow the contract: the observer is
	// invoked only for counted *failing* executions, with a synthesized
	// result carrying the program, seed, failure, and replay decisions
	// but no live trace.
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

// Run implements Tool.
func (t RFFTool) Run(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64) Outcome {
	return t.runScratch(ctx, p, budget, maxSteps, seed, nil)
}

// runScratch implements scratchRunner: a fleet worker's recycler carries
// trace buffers across the trials the worker runs. Cancelling ctx stops
// the fuzzer within one scheduling step of the in-flight execution; the
// interrupted trial records how far it got and an Err.
func (t RFFTool) runScratch(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64, ws *workerState) Outcome {
	if t.Shards >= 1 {
		return t.runSharded(ctx, p, budget, maxSteps, seed)
	}
	opts := core.Options{
		Budget:          budget,
		MaxSteps:        maxSteps,
		Seed:            seed,
		DisableFeedback: t.NoFeedback,
		StopAtFirstBug:  true,
		Telemetry:       t.Telemetry,
		ResultObserver:  t.Observer,
	}
	if ws != nil {
		opts.Recycle = ws.recycler
	}
	rep := core.NewFuzzer(p.Name, p.Body, opts).RunContext(ctx)
	out := Outcome{
		FirstBug:   rep.FirstBug,
		Executions: rep.Executions,
		Budget:     budget,
		CorpusSize: rep.CorpusSize,
		UniqueSigs: rep.UniqueSigs,
	}
	if err := ctx.Err(); err != nil && rep.FirstBug == 0 && rep.Executions < budget {
		out.Err = fmt.Sprintf("trial aborted after %d schedules: %v", rep.Executions, err)
	}
	return out
}

// runSharded runs the trial on the sharded runner. The
// shard runner owns its own per-shard recyclers, so the fleet worker's
// scratch recycler is not threaded through.
func (t RFFTool) runSharded(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64) Outcome {
	opts := shard.Options{
		Budget:          budget,
		MaxSteps:        maxSteps,
		Seed:            seed,
		DisableFeedback: t.NoFeedback,
		StopAtFirstBug:  true,
		Telemetry:       t.Telemetry,
		Shards:          t.Shards,
	}
	if t.Observer != nil {
		opts.FailureObserver = func(res *exec.Result) { t.Observer(res) }
	}
	rep := shard.FuzzContext(ctx, p.Name, p.Body, opts)
	out := Outcome{
		FirstBug:   rep.FirstBug,
		Executions: rep.Executions,
		Budget:     budget,
		CorpusSize: rep.CorpusSize,
		UniqueSigs: rep.UniqueSigs,
	}
	if err := ctx.Err(); err != nil && rep.FirstBug == 0 && rep.Executions < budget {
		out.Err = fmt.Sprintf("trial aborted after %d schedules: %v", rep.Executions, err)
	}
	return out
}

// --- scheduler-based tools ------------------------------------------------------

// SchedulerTool evaluates a per-execution scheduler (POS, PCT, Random,
// Q-Learning): the program is run repeatedly under fresh seeds until a bug
// or the budget. The factory is invoked once per trial so cross-execution
// state (PCT length estimates, Q-tables) accumulates within a trial.
type SchedulerTool struct {
	ToolName string
	Factory  func() exec.Scheduler
	// Telemetry, if non-nil, is threaded into every execution's engine.
	Telemetry telemetry.Sink
	// Observer, if non-nil, sees every counted execution's result.
	Observer ResultObserver
}

// Name implements Tool.
func (t SchedulerTool) Name() string { return t.ToolName }

// Deterministic implements Tool.
func (t SchedulerTool) Deterministic() bool { return false }

// WithObserver implements ObservableTool.
func (t SchedulerTool) WithObserver(obs ResultObserver) Tool {
	t.Observer = chainObservers(t.Observer, obs)
	return t
}

// Run implements Tool.
func (t SchedulerTool) Run(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64) Outcome {
	return t.runScratch(ctx, p, budget, maxSteps, seed, nil)
}

// runScratch implements scratchRunner. ctx is threaded into every
// execution's engine (stopping a cancelled execution within one
// scheduling step) and checked between executions; the interrupted
// trial records how far it got and an Err, counting as a censored
// no-bug outcome.
func (t SchedulerTool) runScratch(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64, ws *workerState) Outcome {
	s := t.Factory()
	out := Outcome{Budget: budget}
	var labels []telemetry.Label
	if t.Telemetry != nil {
		labels = []telemetry.Label{telemetry.L("tool", t.ToolName), telemetry.L("program", p.Name)}
	}
	// The trial never inspects traces after the crash check, so their
	// backing arrays recycle straight into the next execution — and,
	// under a fleet worker, across every trial the worker runs.
	recycler := exec.NewRecycler()
	if ws != nil {
		recycler = ws.recycler
	}
	for i := 1; i <= budget; i++ {
		if err := ctx.Err(); err != nil {
			out.Err = fmt.Sprintf("trial aborted after %d schedules: %v", out.Executions, err)
			break
		}
		res := exec.Run(p.Name, p.Body, exec.Config{
			Scheduler: s,
			Seed:      subSeed(seed, i),
			Ctx:       ctx,
			MaxSteps:  maxSteps,
			Telemetry: t.Telemetry,
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
		crashed := res.Buggy()
		recycler.Reclaim(res.Trace)
		if crashed {
			out.FirstBug = i
			break
		}
	}
	return out
}

// --- systematic tools ------------------------------------------------------------

// SystematicTool adapts a deterministic enumerative explorer (the GenMC
// and PERIOD stand-ins built by internal/strategy on top of
// internal/systematic) to the Tool interface. The trial seed is ignored:
// the exploration is a pure function of the program and budget.
type SystematicTool struct {
	ToolName string
	// Observer, if non-nil, sees every counted execution's result; Run
	// hands it to Explore so WithObserver composition reaches the
	// enumeration loop.
	Observer ResultObserver
	// Explore runs the enumeration under ctx — cancellation must stop it
	// within one scheduling step — and returns the trial outcome. obs
	// (possibly nil) must see every counted execution.
	Explore func(ctx context.Context, p bench.Program, budget, maxSteps int, obs ResultObserver) Outcome
}

// Name implements Tool.
func (t SystematicTool) Name() string { return t.ToolName }

// Deterministic implements Tool.
func (t SystematicTool) Deterministic() bool { return true }

// WithObserver implements ObservableTool.
func (t SystematicTool) WithObserver(obs ResultObserver) Tool {
	t.Observer = chainObservers(t.Observer, obs)
	return t
}

// Run implements Tool.
func (t SystematicTool) Run(ctx context.Context, p bench.Program, budget, maxSteps int, _ int64) Outcome {
	return t.Explore(ctx, p, budget, maxSteps, t.Observer)
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
	// trial. Scheduler-based tools (POS, PCT, Random, Q-Learning) stop
	// at the deadline mid-trial and record an errored outcome; other
	// tools only observe it between trials. Note that a timeout makes
	// outcomes wall-clock-dependent — leave it 0 for reproducible
	// matrices.
	TrialTimeout time.Duration
	// Progress, if non-nil, is called after each completed trial.
	Progress func(done, total int)
	// Telemetry, if non-nil, receives matrix-level metrics (completed
	// trials per tool/program, recovered trial panics, fleet worker
	// metrics) and the campaign event stream (campaign-start,
	// trial-done, trial_error, campaign-done).
	Telemetry telemetry.Sink
	// Budgeter, when non-nil with a non-empty Policy, switches the
	// matrix to adaptive budget scheduling: the total execution pool
	// (Budget x Trials x cells) is spent in epochs, reallocated across
	// (tool, program) cells by the named policy. Callers must validate
	// the config first (budget.Config.Validate); an invalid policy
	// panics here. TrialTimeout applies per epoch cell rather than per
	// trial in this mode.
	Budgeter *budget.Config
}

// workerState is the campaign's per-fleet-worker scratch: allocation
// caches that are unsafe to share across threads but profit from reuse
// across the trials one worker runs sequentially. The abstract-event
// InternTable deliberately stays trial-owned (inside each fuzzer):
// dense EventIDs are assigned in first-intern order, so a worker-shared
// table would leak trial scheduling into ID assignment.
type workerState struct {
	recycler *exec.Recycler
}

// scratchRunner is the optional Tool extension the matrix runner uses
// when it owns the trial's execution context: ctx carries the trial
// deadline and ws the worker's caches.
type scratchRunner interface {
	runScratch(ctx context.Context, p bench.Program, budget, maxSteps int, seed int64, ws *workerState) Outcome
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

// RunMatrixContext executes the evaluation matrix under ctx. The matrix
// decomposes into independent (tool, program, trial) cells; a fleet
// pool runs them concurrently (MatrixOptions.Workers bounds the pool)
// and the merge barrier re-orders completed cells into the exact
// sequential result. Every cell draws its seed from TrialSeed, no
// mutable state is shared across workers, and aggregate telemetry is
// merged at the barrier in cell order — so the returned MatrixResult is
// bit-identical at any worker count.
//
// A panicking trial is contained by the pool: its outcome records the
// error and the scrubbed panic stack, and the matrix keeps running.
// Cancelling ctx aborts unstarted cells (their outcomes record the
// cancellation error); cells already inside a non-interruptible tool
// finish first.
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
	if opts.Budgeter != nil && opts.Budgeter.Policy != "" {
		return runMatrixBudgeted(ctx, tools, programs, opts, workers)
	}

	res := &MatrixResult{
		Budget:   opts.Budget,
		Outcomes: make(map[string]map[string][]Outcome),
	}
	type job struct {
		tool    Tool
		program bench.Program
		trial   int
		budget  int
	}
	var jobs []job
	for _, tl := range tools {
		res.Tools = append(res.Tools, tl.Name())
		res.Outcomes[tl.Name()] = make(map[string][]Outcome)
		trials := opts.Trials
		budget := opts.Budget
		if tl.Deterministic() {
			// Deterministic tools run once but receive the same total
			// compute as a randomized tool's trial set (the paper gives
			// every tool the same wall-clock budget).
			trials = 1
			budget *= opts.Trials
		}
		for _, p := range programs {
			res.Outcomes[tl.Name()][p.Name] = make([]Outcome, trials)
			for tr := 0; tr < trials; tr++ {
				jobs = append(jobs, job{tl, p, tr, budget})
			}
		}
	}
	for _, p := range programs {
		res.Programs = append(res.Programs, p.Name)
	}

	if t := opts.Telemetry; t != nil {
		t.Emit(telemetry.EvCampaignStart, telemetry.Fields{
			"tools":    res.Tools,
			"programs": len(res.Programs),
			"trials":   opts.Trials,
			"budget":   opts.Budget,
			"jobs":     len(jobs),
			"workers":  workers,
		})
	}

	cells := make([]fleet.Cell[Outcome], len(jobs))
	for i, j := range jobs {
		j := j
		cells[i] = fleet.Cell[Outcome]{
			ID: fmt.Sprintf("%s/%s[%d]", j.tool.Name(), j.program.Name, j.trial),
			// The canonical strategy name labels the fleet's per-cell
			// telemetry series, keeping per-strategy durations apart.
			Spec: j.tool.Name(),
			Run: func(ctx context.Context, s *fleet.Scratch) (Outcome, error) {
				seed := TrialSeed(opts.BaseSeed, j.tool.Name(), j.program.Name, j.trial)
				var out Outcome
				if sr, ok := j.tool.(scratchRunner); ok {
					ws, _ := s.State.(*workerState)
					out = sr.runScratch(ctx, j.program, j.budget, opts.MaxSteps, seed, ws)
				} else {
					out = j.tool.Run(ctx, j.program, j.budget, opts.MaxSteps, seed)
				}
				// Streamed while the matrix runs, tagged with the full
				// cell identity so interleaved workers stay told apart.
				// The terminal event of a panicking cell is instead the
				// trial_error emitted at the merge barrier.
				if t := opts.Telemetry; t != nil && !out.Errored() {
					t.Emit(telemetry.EvTrialDone, telemetry.Fields{
						"tool":       j.tool.Name(),
						"program":    j.program.Name,
						"trial":      j.trial,
						"executions": out.Executions,
						"first_bug":  out.FirstBug,
						"worker":     s.Worker,
					})
				}
				return out, nil
			},
		}
	}

	results := fleet.Run(ctx, cells, fleet.Options{
		Workers:     workers,
		CellTimeout: opts.TrialTimeout,
		NewState:    func(int) any { return &workerState{recycler: exec.NewRecycler()} },
		OnDone:      opts.Progress,
		Telemetry:   opts.Telemetry,
	})

	// Merge barrier: fold completed cells back into matrix order. The
	// result maps, the aggregate counters, and the trial_error events
	// are all populated in deterministic cell order here, independent of
	// which worker finished which cell when.
	for i, r := range results {
		j := jobs[i]
		out := r.Value
		if r.Err != nil {
			out = Outcome{Budget: j.budget, Err: r.Err.Error(), Stack: r.Stack}
		}
		res.Outcomes[j.tool.Name()][j.program.Name][j.trial] = out
		if t := opts.Telemetry; t != nil {
			recordTrial(t, j.tool.Name(), j.program.Name, j.trial, out)
		}
	}
	if t := opts.Telemetry; t != nil {
		t.Emit(telemetry.EvCampaignDone, telemetry.Fields{
			"jobs":   len(jobs),
			"errors": len(res.TrialErrors()),
		})
	}
	return res
}

// recordTrial counts one finished trial and, when it errored, emits its
// trial_error event. Both matrix runners call it at their final barrier,
// in matrix order.
func recordTrial(t telemetry.Sink, tool, program string, trial int, out Outcome) {
	labels := []telemetry.Label{{Name: "tool", Value: tool}, {Name: "program", Value: program}}
	t.Add(telemetry.MTrialsDone, 1, labels...)
	if !out.Errored() {
		return
	}
	t.Add(telemetry.MTrialPanics, 1, labels...)
	fields := telemetry.Fields{"tool": tool, "program": program, "trial": trial, "error": out.Err}
	if out.Stack != "" {
		fields["stack"] = out.Stack
	}
	t.Emit(telemetry.EvTrialError, fields)
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
	// Sort ascending and emit cumulative counts.
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
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
