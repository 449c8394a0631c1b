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
	// Recycle, if non-nil, supplies the trace-buffer recycler — a
	// parallel campaign driver threads one per worker so buffers survive
	// across the trials that worker runs. Recyclers carry only capacity
	// hints, never schedule state, so sharing one across sequential
	// campaigns cannot change results. Nil allocates a fresh recycler.
	Recycle *exec.Recycler
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
// interesting mutants back into the corpus.
type Fuzzer struct {
	name string
	prog exec.Program
	opts Options

	fb     *Feedback
	corpus *Corpus
	pool   *EventPool
	sched  *Proactive
	rng    *rand.Rand

	// intern is the campaign-shared abstract-event table: every
	// execution's trace summary resolves events to the same dense IDs,
	// keeping feedback and pool keys comparable as plain integers.
	intern *exec.InternTable
	// recycler reuses trace backing arrays and engine size hints across
	// the campaign's executions (reset-don't-reallocate).
	recycler *exec.Recycler

	tel    telemetry.Sink
	labels []telemetry.Label // {program: name}, reused across calls
}

// NewFuzzer builds a campaign for the program with the given options.
func NewFuzzer(name string, prog exec.Program, opts Options) *Fuzzer {
	if opts.Budget <= 0 {
		panic("core.NewFuzzer: Options.Budget must be positive")
	}
	recycler := opts.Recycle
	if recycler == nil {
		recycler = exec.NewRecycler()
	}
	return &Fuzzer{
		name:     name,
		prog:     prog,
		opts:     opts,
		fb:       NewFeedback(),
		corpus:   NewCorpus(opts.InitialCorpus...),
		pool:     NewEventPool(),
		sched:    NewProactive(),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		intern:   exec.NewInternTable(),
		recycler: recycler,
		tel:      opts.Telemetry,
		labels:   []telemetry.Label{{Name: "program", Value: name}},
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
	rep := &Report{Program: f.name}
	var entry *Entry
	energyLeft := 0
	for rep.Executions < f.opts.Budget && ctx.Err() == nil {
		if energyLeft <= 0 {
			entry = f.corpus.PickNext()
			energyLeft = 1
			if !f.opts.DisableFeedback {
				energyLeft = f.corpus.Energy(entry, f.fb, f.opts.Power)
			}
			if t := f.tel; t != nil {
				// Bucket 0 counts skipped stages (energy 0).
				t.Observe(telemetry.MEnergyAssigned, int64(energyLeft), f.labels...)
			}
			// Zero energy skips the stage: loop around to the next pick.
			continue
		}
		energyLeft--
		crashed, cancelled := f.fuzzOne(ctx, entry, rep)
		if cancelled || crashed && f.opts.StopAtFirstBug {
			break
		}
	}
	f.finish(rep)
	return rep
}

// fuzzOne performs one iteration of the inner loop: mutate, execute,
// observe. Reports whether the execution crashed and whether it was
// abandoned to a cancelled ctx (in which case nothing was observed).
func (f *Fuzzer) fuzzOne(ctx context.Context, entry *Entry, rep *Report) (crashed, cancelled bool) {
	mut := Mutate(entry.Schedule, f.pool, f.rng, f.opts.Mutator)
	seed := f.rng.Int63()
	if f.opts.DisableProactive {
		f.sched.SetSchedule(EmptySchedule()) // machines off: pure POS
	} else {
		f.sched.SetSchedule(mut)
	}
	res := exec.Run(f.name, f.prog, exec.Config{
		Scheduler: f.sched,
		Seed:      seed,
		Ctx:       ctx,
		MaxSteps:  f.opts.MaxSteps,
		Telemetry: f.opts.Telemetry,
		Intern:    f.intern,
		Recycle:   f.recycler,
	})
	// The trace's backing arrays return to the recycler once everything
	// below has observed it.
	defer f.recycler.Reclaim(res.Trace)
	if res.Cancelled {
		// The execution was abandoned mid-run; its partial trace must not
		// perturb the feedback state or count against the budget.
		return false, true
	}
	rep.Executions++
	if f.opts.TraceObserver != nil {
		f.observeTrace(res.Trace)
	}
	if f.opts.ResultObserver != nil {
		f.opts.ResultObserver(res)
	}

	obs := f.fb.Observe(res.Trace)
	f.pool.AddTrace(res.Trace)
	if entry.Sig == 0 {
		// Seed entries (ε) carry no signature until first executed; bind
		// them to their observed combination so the power schedule can
		// skip them once that combination is over-explored.
		entry.Sig = obs.Sig
	}

	crashed = res.Buggy()
	if t := f.tel; t != nil {
		t.Add(telemetry.MSchedulesExecuted, 1, f.labels...)
		if obs.NewPairs > 0 {
			t.Add(telemetry.MRFPairsNew, int64(obs.NewPairs), f.labels...)
		}
		if obs.NewSig {
			t.Add(telemetry.MRFCombosNew, 1, f.labels...)
		}
		if !f.opts.DisableProactive {
			if n := f.sched.SatisfiedCount(); n > 0 {
				t.Add(telemetry.MConstraintSatisfied, int64(n), f.labels...)
			}
			if n := f.sched.RejectedCount(); n > 0 {
				t.Add(telemetry.MConstraintRejected, int64(n), f.labels...)
			}
		}
		if crashed {
			t.Add(telemetry.MSchedulesCrashed, 1, f.labels...)
		}
	}
	if crashed {
		rep.Failures = append(rep.Failures, FailureRecord{
			Schedule:  mut,
			Seed:      seed,
			Execution: rep.Executions,
			Failure:   res.Failure,
			Decisions: res.Trace.ThreadOrder(),
		})
		if rep.FirstBug == 0 {
			rep.FirstBug = rep.Executions
			if t := f.tel; t != nil {
				t.Emit(telemetry.EvFirstBug, telemetry.Fields{
					"program":   f.name,
					"execution": rep.Executions,
					"kind":      res.Failure.Kind.String(),
					"msg":       res.Failure.Msg,
				})
			}
		}
	}
	if !f.opts.DisableFeedback && f.fb.Interesting(obs, crashed) {
		if _, added := f.corpus.Add(&Entry{Schedule: mut, Sig: obs.Sig, Perf: obs.NewPairs}); added {
			if t := f.tel; t != nil {
				t.Add(telemetry.MCorpusAdds, 1, f.labels...)
				t.Set(telemetry.MCorpusSize, int64(f.corpus.Len()), f.labels...)
				t.Emit(telemetry.EvInteresting, telemetry.Fields{
					"program":     f.name,
					"execution":   rep.Executions,
					"new_pairs":   obs.NewPairs,
					"new_combo":   obs.NewSig,
					"crashed":     crashed,
					"corpus_size": f.corpus.Len(),
				})
			}
		}
	}
	return crashed, false
}

// observeTrace invokes the user's TraceObserver, containing any panic it
// raises: a broken auxiliary analysis must not kill the campaign or
// corrupt the corpus mid-update.
func (f *Fuzzer) observeTrace(tr *exec.Trace) {
	defer func() {
		if r := recover(); r != nil {
			if t := f.tel; t != nil {
				t.Add(telemetry.MObserverPanics, 1, f.labels...)
			}
		}
	}()
	f.opts.TraceObserver(tr)
}

// finish copies final feedback statistics into the report.
func (f *Fuzzer) finish(rep *Report) {
	if t := f.tel; t != nil {
		t.Set(telemetry.MCorpusSize, int64(f.corpus.Len()), f.labels...)
	}
	rep.CorpusSize = f.corpus.Len()
	rep.UniquePairs = f.fb.UniquePairs()
	rep.UniqueSigs = f.fb.UniqueSigs()
	rep.SigFrequencies = f.fb.SigFrequencies()
}
