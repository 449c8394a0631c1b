package core

import (
	"context"
	"math/rand"

	"rff/internal/exec"
	"rff/internal/telemetry"
)

// Options configures a fuzzing campaign on one program.
type Options struct {
	// Budget is the maximum number of schedules (executions) to try.
	// Required.
	Budget int
	// MaxSteps bounds each execution's event count (0 = engine default).
	MaxSteps int
	// Seed makes the whole campaign deterministic.
	Seed int64
	// Power tunes the power schedule.
	Power PowerConfig
	// Mutator tunes schedule mutation.
	Mutator MutatorConfig
	// DisableFeedback ablates the greybox feedback (RQ3): the corpus is
	// never extended and every stage gets unit energy, leaving only the
	// abstract-schedule mutation structure over POS.
	DisableFeedback bool
	// DisableProactive ablates the proactive constraint scheduler:
	// mutants are still generated and fed back, but executions run under
	// plain POS with no steering — isolating the Figure 2 machines'
	// contribution from the rest of the loop.
	DisableProactive bool
	// StopAtFirstBug ends the campaign at the first failing schedule —
	// the setting used for the schedules-to-first-bug experiments.
	StopAtFirstBug bool
	// InitialCorpus is Algorithm 1's S_init; when empty the corpus is
	// seeded with the empty schedule ε.
	InitialCorpus []Schedule
	// TraceObserver, if non-nil, is invoked with every executed trace —
	// the hook auxiliary analyses (e.g. the happens-before race
	// detector) use to piggyback on the fuzzing campaign. A panicking
	// observer is recovered per execution: the campaign and its corpus
	// continue unharmed. The trace's backing arrays are recycled into the
	// next execution, so observers must finish with the trace before
	// returning and must not retain it (copy what they keep).
	TraceObserver func(t *exec.Trace)
	// ResultObserver, if non-nil, is invoked with every counted execution's
	// full result (trace plus failure/truncation verdict) — the hook the
	// conformance harness uses to compare observed behaviors against the
	// systematically enumerated set. Unlike TraceObserver it is part of the
	// verification machinery, so a panic propagates instead of being
	// contained. The same retention rule applies: the result's trace is
	// recycled after the observer returns, so copy anything kept.
	ResultObserver func(res *exec.Result)
	// Telemetry, if non-nil, receives the campaign's metrics (schedules
	// executed, new reads-from pairs/combinations, corpus growth, power-
	// schedule energy, constraint outcomes) and events (first-bug,
	// interesting-schedule). A nil sink costs one branch per
	// instrumentation point.
	Telemetry telemetry.Sink
}

// FailureRecord captures one crashing schedule (Algorithm 1's S_fail
// members) with everything needed to replay it.
type FailureRecord struct {
	// Schedule is the abstract schedule that was being driven.
	Schedule Schedule
	// Seed reproduces the execution together with the schedule.
	Seed int64
	// Execution is the 1-based schedule count at which the bug fired.
	Execution int
	// Failure describes the bug.
	Failure *exec.Failure
	// Decisions replays the exact concrete schedule via sched.NewReplay.
	Decisions []exec.ThreadID
}

// Report summarizes one campaign.
type Report struct {
	Program    string
	Executions int
	// FirstBug is the schedule count of the first failure (0 = none).
	FirstBug int
	Failures []FailureRecord
	// CorpusSize, UniquePairs and UniqueSigs describe the final feedback
	// state.
	CorpusSize  int
	UniquePairs int
	UniqueSigs  int
	// SigFrequencies is the per-combination observation count series in
	// first-observation order (Figure 5's data).
	SigFrequencies []int
}

// FoundBug reports whether any schedule crashed.
func (r *Report) FoundBug() bool { return r.FirstBug > 0 }

// Fuzzer runs Algorithm 1 — the greybox concurrency fuzzing loop — on one
// program: pick a corpus schedule and its energy, mutate it that many
// times, execute each mutant under the proactive scheduler, and feed
// interesting mutants back into the corpus. The campaign state and its
// fold are a Campaign; the Fuzzer adds the execution side.
type Fuzzer struct {
	c     *Campaign
	sched *Proactive
	rng   *rand.Rand
	// recycler reuses trace backing arrays and engine size hints across
	// the campaign's executions (reset-don't-reallocate).
	recycler *exec.Recycler

	traceObs  func(*exec.Trace)
	resultObs func(*exec.Result)
}

// NewFuzzer builds a campaign for the program with the given options.
func NewFuzzer(name string, prog exec.Program, opts Options) *Fuzzer {
	if opts.Budget <= 0 {
		panic("core.NewFuzzer: Options.Budget must be positive")
	}
	return &Fuzzer{
		c:         NewCampaign(name, prog, opts),
		sched:     NewProactive(),
		rng:       rand.New(rand.NewSource(opts.Seed)),
		recycler:  exec.NewRecycler(),
		traceObs:  opts.TraceObserver,
		resultObs: opts.ResultObserver,
	}
}

// Run executes the campaign to its budget (or first bug, if configured)
// and returns the report. A Fuzzer runs one campaign: call Run or
// RunContext once.
func (f *Fuzzer) Run() *Report { return f.RunContext(context.Background()) }

// RunContext executes the campaign under ctx: cancellation (or a
// deadline) stops the current execution within one scheduling step and
// returns the report of everything completed so far. A cancelled
// partial execution is discarded — it never reaches the feedback state,
// so an interrupted campaign's report is a prefix of the uninterrupted
// one.
func (f *Fuzzer) RunContext(ctx context.Context) *Report {
	for !f.c.Done() && ctx.Err() == nil {
		if !f.fuzzOne(ctx, f.c.Next()) {
			break
		}
	}
	return f.c.Finish()
}

// fuzzOne performs one iteration of the inner loop: mutate, execute,
// observe, fold. Reports false when the execution was abandoned to a
// cancelled ctx (in which case nothing was folded).
func (f *Fuzzer) fuzzOne(ctx context.Context, entry *Entry) bool {
	res, x := f.c.Execute(ctx, entry, f.sched, f.rng, f.recycler)
	// The trace's backing arrays return to the recycler once everything
	// below has observed it.
	defer f.recycler.Reclaim(res.Trace)
	if res.Cancelled {
		// The execution was abandoned mid-run; its partial trace must not
		// perturb the feedback state or count against the budget.
		return false
	}
	if f.traceObs != nil {
		f.observeTrace(res.Trace)
	}
	if f.resultObs != nil {
		f.resultObs(res)
	}
	f.c.Fold(entry, &x)
	return true
}

// observeTrace invokes the user's TraceObserver, containing any panic it
// raises: a broken auxiliary analysis must not kill the campaign or
// corrupt the corpus mid-update.
func (f *Fuzzer) observeTrace(tr *exec.Trace) {
	defer func() {
		if r := recover(); r != nil {
			if t := f.c.tel; t != nil {
				t.Add(telemetry.MObserverPanics, 1, f.c.labels...)
			}
		}
	}()
	f.traceObs(tr)
}
