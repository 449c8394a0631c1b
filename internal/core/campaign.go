package core

import (
	"context"
	"math/rand"
	"strconv"

	"rff/internal/exec"
	"rff/internal/telemetry"
)

// Campaign is the campaign-global half of Algorithm 1 on one program: the
// corpus S, the greybox feedback, the event pool, the report and the
// stage cursor. Next picks what runs, Execute runs it on the caller's
// scheduler, RNG and recycler, and Fold folds it back in. The sequential
// Fuzzer folds each execution as soon as it ran; the sharded runner
// (internal/shard) plans a whole epoch of Next calls against frozen
// state, executes them on worker shards, and folds the results at its
// barrier in plan order.
type Campaign struct {
	name string
	prog exec.Program
	opts Options

	corpus *Corpus
	fb     *Feedback
	pool   *EventPool
	// intern is the campaign-shared abstract-event table: every
	// execution's trace summary resolves events to the same dense IDs,
	// keeping feedback and pool keys comparable as plain integers.
	intern *exec.InternTable
	rep    *Report

	// The stage cursor: the entry being fuzzed and the energy left in
	// its stage.
	entry      *Entry
	energyLeft int
	// stopped is set by the first bug under StopAtFirstBug.
	stopped bool

	// failSeen, when non-nil, keeps one failure record per failure
	// signature (see DedupFailures).
	failSeen map[string]bool

	tel    telemetry.Sink
	labels []telemetry.Label // {program: name}, reused across calls
}

// Execution is what Fold needs of one execution, none of it tied to the
// trace's recycled arrays: its summary, the mutant and execution seed
// that reproduce it, its failure and replay decisions (both nil for a
// clean run), and the proactive scheduler's satisfied and rejected
// constraint counts.
type Execution struct {
	Sum                 *exec.Summary
	Mutant              Schedule
	Seed                int64
	Failure             *exec.Failure
	Decisions           []exec.ThreadID
	Satisfied, Rejected int
}

// NewCampaign returns the campaign state for the named program, its
// corpus seeded with opts.InitialCorpus (ε when empty). Of opts it reads
// everything but Seed and the observers, which belong to the driver.
func NewCampaign(name string, prog exec.Program, opts Options) *Campaign {
	return &Campaign{
		name:   name,
		prog:   prog,
		opts:   opts,
		corpus: NewCorpus(opts.InitialCorpus...),
		fb:     NewFeedback(),
		pool:   NewEventPool(),
		intern: exec.NewInternTable(),
		rep:    &Report{Program: name},
		tel:    opts.Telemetry,
		labels: []telemetry.Label{{Name: "program", Value: name}},
	}
}

// DedupFailures makes Fold record one failure per failure signature
// (kind, thread, location, message) instead of one per failing
// execution. The sharded runner sets it: its reports keep S_fail to
// distinct failures, while the sequential loop's Failures list every
// failing execution.
func (c *Campaign) DedupFailures() { c.failSeen = make(map[string]bool) }

// Name returns the program name.
func (c *Campaign) Name() string { return c.name }

// Telemetry returns the campaign's sink (nil when off) and its
// {program: name} labels, which callers must not modify.
func (c *Campaign) Telemetry() (telemetry.Sink, []telemetry.Label) { return c.tel, c.labels }

// Executions returns the number of executions folded so far.
func (c *Campaign) Executions() int { return c.rep.Executions }

// CorpusSize returns the corpus size.
func (c *Campaign) CorpusSize() int { return c.corpus.Len() }

// Done reports whether the campaign spent its budget or stopped at its
// first bug.
func (c *Campaign) Done() bool { return c.stopped || c.rep.Executions >= c.opts.Budget }

// Next walks the stage cursor to the entry the next execution mutates:
// when the current stage's energy is spent it picks the next corpus
// entry round-robin and assigns its power-schedule energy (unit energy
// without feedback), skipping entries whose energy is zero.
func (c *Campaign) Next() *Entry {
	for c.energyLeft <= 0 {
		c.entry = c.corpus.PickNext()
		c.energyLeft = 1
		if !c.opts.DisableFeedback {
			c.energyLeft = c.corpus.Energy(c.entry, c.fb, c.opts.Power)
		}
		if t := c.tel; t != nil {
			// Bucket 0 counts skipped stages (energy 0).
			t.Observe(telemetry.MEnergyAssigned, int64(c.energyLeft), c.labels...)
		}
	}
	c.energyLeft--
	return c.entry
}

// Execute runs one mutant of entry under sched: rng draws the mutation
// and the execution seed, and the trace records into rec's arrays. The
// caller reclaims res.Trace when done with it and folds x unless
// res.Cancelled. Execute only reads the campaign, so worker shards may
// call it concurrently between folds.
func (c *Campaign) Execute(ctx context.Context, entry *Entry, sched *Proactive, rng *rand.Rand, rec *exec.Recycler) (res *exec.Result, x Execution) {
	mut := Mutate(entry.Schedule, c.pool, rng, c.opts.Mutator)
	seed := rng.Int63()
	if c.opts.DisableProactive {
		sched.SetSchedule(EmptySchedule()) // machines off: pure POS
	} else {
		sched.SetSchedule(mut)
	}
	res = exec.Run(c.name, c.prog, exec.Config{
		Scheduler: sched,
		Seed:      seed,
		Ctx:       ctx,
		MaxSteps:  c.opts.MaxSteps,
		Telemetry: c.tel,
		Intern:    c.intern,
		Recycle:   rec,
	})
	if res.Cancelled {
		return res, x
	}
	x = Execution{
		Sum:       res.Trace.Summary(),
		Mutant:    mut,
		Seed:      seed,
		Failure:   res.Failure,
		Satisfied: sched.SatisfiedCount(),
		Rejected:  sched.RejectedCount(),
	}
	if res.Failure != nil {
		// Only failures keep their replay decisions: copying the schedule
		// of every healthy execution would defeat trace recycling.
		x.Decisions = res.Trace.ThreadOrder()
	}
	return res, x
}

// Fold counts one execution of a mutant of entry and folds it into the
// campaign: feedback and event pool observe its summary, the failure
// joins S_fail, and an interesting mutant joins the corpus. It returns
// true when the campaign must stop (its first bug under StopAtFirstBug).
func (c *Campaign) Fold(entry *Entry, x *Execution) (stop bool) {
	rep := c.rep
	rep.Executions++
	obs := c.fb.ObserveSummary(x.Sum)
	c.pool.AddSummary(x.Sum)
	if entry.Sig == 0 {
		// Seed entries (ε) carry no signature until first executed; bind
		// them to their observed combination so the power schedule can
		// skip them once that combination is over-explored.
		entry.Sig = obs.Sig
	}

	crashed := x.Failure != nil
	if t := c.tel; t != nil {
		t.Add(telemetry.MSchedulesExecuted, 1, c.labels...)
		if obs.NewPairs > 0 {
			t.Add(telemetry.MRFPairsNew, int64(obs.NewPairs), c.labels...)
		}
		if obs.NewSig {
			t.Add(telemetry.MRFCombosNew, 1, c.labels...)
		}
		if x.Satisfied > 0 {
			t.Add(telemetry.MConstraintSatisfied, int64(x.Satisfied), c.labels...)
		}
		if x.Rejected > 0 {
			t.Add(telemetry.MConstraintRejected, int64(x.Rejected), c.labels...)
		}
		if crashed {
			t.Add(telemetry.MSchedulesCrashed, 1, c.labels...)
		}
	}
	if crashed {
		c.recordFailure(x)
		c.stopped = c.opts.StopAtFirstBug
	}
	if !c.opts.DisableFeedback && c.fb.Interesting(obs, crashed) {
		if _, added := c.corpus.Add(&Entry{Schedule: x.Mutant, Sig: obs.Sig, Perf: obs.NewPairs}); added {
			if t := c.tel; t != nil {
				t.Add(telemetry.MCorpusAdds, 1, c.labels...)
				t.Set(telemetry.MCorpusSize, int64(c.corpus.Len()), c.labels...)
				t.Emit(telemetry.EvInteresting, telemetry.Fields{
					"program":     c.name,
					"execution":   rep.Executions,
					"new_pairs":   obs.NewPairs,
					"new_combo":   obs.NewSig,
					"crashed":     crashed,
					"corpus_size": c.corpus.Len(),
				})
			}
		}
	}
	return c.stopped
}

// recordFailure adds the failing execution x to S_fail (unless
// DedupFailures already saw its signature) and stamps the first bug.
func (c *Campaign) recordFailure(x *Execution) {
	rep := c.rep
	f := x.Failure
	if c.distinct(f) {
		rep.Failures = append(rep.Failures, FailureRecord{
			Schedule:  x.Mutant,
			Seed:      x.Seed,
			Execution: rep.Executions,
			Failure:   f,
			Decisions: x.Decisions,
		})
	}
	if rep.FirstBug == 0 {
		rep.FirstBug = rep.Executions
		if t := c.tel; t != nil {
			t.Emit(telemetry.EvFirstBug, telemetry.Fields{
				"program":   c.name,
				"execution": rep.Executions,
				"kind":      f.Kind.String(),
				"msg":       f.Msg,
			})
		}
	}
}

// distinct reports whether f is the first failure of its signature;
// always true unless DedupFailures is set.
func (c *Campaign) distinct(f *exec.Failure) bool {
	if c.failSeen == nil {
		return true
	}
	k := f.Kind.String() + "|" + strconv.Itoa(int(f.Thread)) + "|" + f.Loc + "|" + f.Msg
	if c.failSeen[k] {
		return false
	}
	c.failSeen[k] = true
	return true
}

// Finish copies the final feedback statistics into the report and
// returns it.
func (c *Campaign) Finish() *Report {
	rep := c.rep
	rep.CorpusSize = c.corpus.Len()
	rep.UniquePairs = c.fb.UniquePairs()
	rep.UniqueSigs = c.fb.UniqueSigs()
	rep.SigFrequencies = c.fb.SigFrequencies()
	if t := c.tel; t != nil {
		t.Set(telemetry.MCorpusSize, int64(rep.CorpusSize), c.labels...)
	}
	return rep
}
