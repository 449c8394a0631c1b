// Package shard executes one fuzzing campaign across W worker shards:
// batches of planned executions run as fleet cells on per-shard state,
// with zero cross-shard locking on the hot path, punctuated by
// deterministic epoch merge barriers that fold shard-local observations
// back into campaign-global state. See DESIGN.md §13 for the full
// architecture and determinism contract.
package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/fleet"
	"rff/internal/telemetry"
)

// Options configures a sharded fuzzing campaign on one program. The
// core fields mirror core.Options; the sharding fields control how the
// budget is spread across workers.
type Options struct {
	// Budget is the total number of counted executions. Required.
	Budget int
	// MaxSteps bounds each execution's event count (0 = engine default).
	MaxSteps int
	// Seed makes the whole campaign deterministic.
	Seed int64
	// Power tunes the power schedule.
	Power core.PowerConfig
	// Mutator tunes schedule mutation.
	Mutator core.MutatorConfig
	// DisableFeedback, DisableProactive and StopAtFirstBug are the
	// core.Options ablation/stop switches, unchanged.
	DisableFeedback  bool
	DisableProactive bool
	StopAtFirstBug   bool
	// InitialCorpus is Algorithm 1's S_init (ε when empty).
	InitialCorpus []core.Schedule
	// Telemetry, if non-nil, receives campaign metrics plus the sharding
	// series: the shard_execs counter per {program,shard}, the
	// shard_merge_ns histogram, the shard_utilization_pct gauge, and
	// epoch-merge events. The sink is called from W goroutines and must
	// be safe for concurrent use (telemetry.Hub is).
	Telemetry telemetry.Sink
	// FailureObserver, if non-nil, is invoked at the merge barrier with a
	// synthesized result for every counted failing execution, in counted
	// order. Unlike core.Options.ResultObserver it sees only failures,
	// and the result carries no live trace — only Program, Seed, Failure,
	// and a Trace holding the replay Decisions — because the shard that
	// ran the execution recycled its trace long before the barrier.
	FailureObserver func(res *exec.Result)

	// Shards is the worker count W (values < 1 mean 1). Each shard owns
	// a private intern table, recycler, and proactive scheduler; the
	// report is identical for every value.
	Shards int
	// Epoch is K, the steady-state number of executions planned between
	// merge barriers (0 = DefaultEpoch). Epoch sizes ramp geometrically
	// (1, 2, 4, ... up to K): the first executions fold their feedback
	// back almost immediately — mirroring the sequential loop's early
	// learning, where the event pool seeds mutation from execution two
	// onward — and the barrier cost amortizes once the campaign is warm.
	// The report is a pure function of (Seed, Budget, Epoch) — the
	// shard count never enters it.
	Epoch int
}

// DefaultEpoch is the executions-per-epoch used when Options.Epoch is 0.
const DefaultEpoch = 256

// batch is the number of planned executions per fleet cell. Batching
// amortizes the pool's claim traffic and goroutine wakeups over several
// executions on one shard's warm recycler and intern table.
const batch = 16

// Fuzz runs the sharded campaign to completion.
func Fuzz(name string, prog exec.Program, opts Options) *core.Report {
	return FuzzContext(context.Background(), name, prog, opts)
}

// FuzzContext runs the sharded campaign under ctx. Cancellation stops
// every in-flight execution within one scheduling step; the returned
// report covers the longest merged prefix of counted executions, so an
// interrupted deterministic campaign reports a prefix of the
// uninterrupted one.
func FuzzContext(ctx context.Context, name string, prog exec.Program, opts Options) *core.Report {
	if opts.Budget <= 0 {
		panic("shard.Fuzz: Options.Budget must be positive")
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.Epoch <= 0 {
		opts.Epoch = DefaultEpoch
	}
	return newRunner(name, prog, opts).run(ctx)
}

// mixSeed derives the RNG seed of global execution index idx from the
// campaign seed — splitmix64-style, so per-execution streams are
// independent and depend only on (campaign seed, index), never on which
// shard runs the execution.
func mixSeed(seed int64, idx int) int64 {
	z := uint64(seed) ^ (uint64(int64(idx))+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// digest is the shard-side record of one executed schedule — everything
// the merge barrier needs, copied out of the trace before its backing
// arrays recycle into the shard's next execution. The pairIDs/eventIDs
// buffers persist across epochs (append into [:0]), so a steady-state
// epoch allocates nothing on the digest path.
type digest struct {
	done     bool // false = execution abandoned (ctx cancelled)
	shard    int  // which shard ran it; selects the remapper at merge
	sig      uint64
	pairIDs  []exec.PairID  // shard-local IDs
	eventIDs []exec.EventID // shard-local IDs
	mut      core.Schedule
	seed     int64
	failure  *exec.Failure
	// decisions replays the failing execution (nil for clean runs —
	// copying the schedule of every healthy execution would defeat
	// trace recycling).
	decisions []exec.ThreadID
}

// shardState is one worker shard's private world: its own intern table,
// trace recycler, proactive scheduler, and RNG, so the execution hot
// path takes no cross-shard lock. The remapper (shard table → campaign
// table) lives here too, but is only touched by the coordinator at the
// merge barrier.
type shardState struct {
	id     int
	intern *exec.InternTable
	rec    *exec.Recycler
	sched  *core.Proactive
	src    rand.Source
	rng    *rand.Rand
	remap  *exec.Remapper

	// Per-epoch counters, folded into telemetry at the barrier.
	epochExecs     int64
	epochSatisfied int64
	epochRejected  int64
	// busy accumulates the durations of the batches this shard ran, for
	// the utilization gauge.
	busy time.Duration

	labels []telemetry.Label // {program, shard}
}

// runner is the deterministic sharded campaign: a coordinator that
// plans epochs from frozen global state, W shards that execute the
// plan's batches as fleet cells, and a merge barrier that folds shard
// observations back into global state in global execution order.
type runner struct {
	name string
	prog exec.Program
	opts Options

	// Campaign-global state. Only the coordinator touches it: shards
	// read the frozen corpus entries and event pool during an epoch and
	// write nothing but their own digest slots.
	corpus *core.Corpus
	fb     *core.Feedback
	pool   *core.EventPool
	intern *exec.InternTable
	rep    *core.Report

	// Planner state, carried across epochs exactly like the sequential
	// fuzzer carries its stage across RunN calls.
	curEntry   *core.Entry
	energyLeft int
	stopped    bool

	shards  []*shardState
	plan    []*core.Entry // reused epoch plan (one entry per execution)
	digests []digest      // reused epoch digest slots

	// Epoch execution: one fleet cell per batch of the plan, built once.
	// The cells read the epoch's executions from plan and its first
	// global execution index from epochStart.
	cells      []fleet.Cell[struct{}]
	fleetOpts  fleet.Options
	epochStart int

	// Merge-barrier scratch.
	pairScratch []exec.PairID
	failSeen    map[string]bool

	tel    telemetry.Sink
	labels []telemetry.Label
	start  time.Time
}

func newRunner(name string, prog exec.Program, opts Options) *runner {
	r := &runner{
		name:     name,
		prog:     prog,
		opts:     opts,
		corpus:   core.NewCorpus(opts.InitialCorpus...),
		fb:       core.NewFeedback(),
		pool:     core.NewEventPool(),
		intern:   exec.NewInternTable(),
		rep:      &core.Report{Program: name},
		plan:     make([]*core.Entry, 0, opts.Epoch),
		digests:  make([]digest, opts.Epoch),
		failSeen: make(map[string]bool),
		tel:      opts.Telemetry,
		labels:   []telemetry.Label{telemetry.L("program", name)},
	}
	for i := 0; i < opts.Shards; i++ {
		src := rand.NewSource(1) // reseeded per execution
		s := &shardState{
			id:     i,
			intern: exec.NewInternTable(),
			rec:    exec.NewRecycler(),
			sched:  core.NewProactive(),
			src:    src,
			rng:    rand.New(src),
			labels: []telemetry.Label{telemetry.L("program", name), telemetry.L("shard", strconv.Itoa(i))},
		}
		s.remap = exec.NewRemapper(s.intern, r.intern)
		r.shards = append(r.shards, s)
	}
	r.fleetOpts = fleet.Options{
		Workers: opts.Shards,
		// Fleet worker w runs every cell it claims on shard w's state.
		NewState: func(w int) any { return r.shards[w] },
	}
	// No epoch plans more than min(Epoch, Budget) executions.
	r.cells = make([]fleet.Cell[struct{}], (min(opts.Epoch, opts.Budget)+batch-1)/batch)
	for b := range r.cells {
		lo := b * batch
		r.cells[b] = fleet.Cell[struct{}]{
			ID: "batch " + strconv.Itoa(b),
			Run: func(ctx context.Context, sc *fleet.Scratch) (struct{}, error) {
				s := sc.State.(*shardState)
				for i := lo; i < min(lo+batch, len(r.plan)); i++ {
					if !r.execOne(ctx, s, r.plan[i], r.epochStart+i, &r.digests[i]) {
						break
					}
					s.epochExecs++
				}
				return struct{}{}, nil
			},
		}
	}
	return r
}

func (r *runner) run(ctx context.Context) *core.Report {
	r.start = time.Now()
	epoch := 0
	ramp := 1
	for !r.done() && ctx.Err() == nil {
		k := min(ramp, r.opts.Epoch, r.opts.Budget-r.rep.Executions)
		ramp = min(ramp*2, r.opts.Epoch)
		plan := r.planEpoch(k)
		epochStart := r.rep.Executions
		r.runEpoch(ctx, plan, epochStart)
		interrupted := r.mergeEpoch(plan, epoch)
		epoch++
		if interrupted {
			break
		}
	}
	return r.finish()
}

func (r *runner) done() bool {
	return r.stopped || r.rep.Executions >= r.opts.Budget
}

// planEpoch freezes the next k executions: it walks the round-robin +
// power-schedule stage logic of the sequential loop (including the
// zero-energy skip) against the current — merged — global state, and
// returns the chosen entry for each of the epoch's execution slots.
// Feedback does not move during an epoch, so every energy decision in
// the plan depends only on state as of the previous barrier: this is
// what makes the schedule independent of shard count.
func (r *runner) planEpoch(k int) []*core.Entry {
	plan := r.plan[:0]
	for len(plan) < k {
		if r.energyLeft <= 0 {
			entry := r.corpus.PickNext()
			energy := 1
			if !r.opts.DisableFeedback {
				energy = r.corpus.Energy(entry, r.fb, r.opts.Power)
			}
			if t := r.tel; t != nil {
				t.Observe(telemetry.MEnergyAssigned, int64(energy), r.labels...)
			}
			r.curEntry, r.energyLeft = entry, energy
			continue
		}
		r.energyLeft--
		plan = append(plan, r.curEntry)
	}
	r.plan = plan
	return plan
}

// runEpoch runs the plan's batches as fleet cells, one worker per
// shard, until every batch has executed (or been skipped by a cancelled
// ctx). Shards fill disjoint digest slots, so the workers share nothing
// mutable. A panicking batch re-panics here, on the caller's goroutine,
// after the wave: folding it as an interrupted prefix would pass a crash
// off as a cancellation.
func (r *runner) runEpoch(ctx context.Context, plan []*core.Entry, epochStart int) {
	for i := range plan {
		r.digests[i].done = false
	}
	r.epochStart = epochStart
	results := fleet.Run(ctx, r.cells[:(len(plan)+batch-1)/batch], r.fleetOpts)
	for _, res := range results {
		if res.Panicked {
			panic(fmt.Sprintf("shard: %s: %v\n%s", res.Cell, res.Err, res.Stack))
		}
		r.shards[res.Worker].busy += res.Duration
	}
}

// execOne runs one planned execution on shard s and records its digest.
// The RNG is reseeded from (campaign seed, global index), so mutation
// and execution seed are a pure function of the slot — not of the shard
// or of what the shard ran before. Returns false when the execution was
// abandoned to a cancelled ctx (the digest slot stays un-done).
func (r *runner) execOne(ctx context.Context, s *shardState, entry *core.Entry, gidx int, d *digest) bool {
	s.src.Seed(mixSeed(r.opts.Seed, gidx))
	mut := core.Mutate(entry.Schedule, r.pool, s.rng, r.opts.Mutator)
	seed := s.rng.Int63()
	if r.opts.DisableProactive {
		s.sched.SetSchedule(core.EmptySchedule())
	} else {
		s.sched.SetSchedule(mut)
	}
	res := exec.Run(r.name, r.prog, exec.Config{
		Scheduler: s.sched,
		Seed:      seed,
		Ctx:       ctx,
		MaxSteps:  r.opts.MaxSteps,
		Telemetry: r.tel,
		Intern:    s.intern,
		Recycle:   s.rec,
	})
	if res.Cancelled {
		s.rec.Reclaim(res.Trace)
		return false
	}
	sum := res.Trace.Summary()
	d.shard = s.id
	d.sig = sum.Sig
	d.pairIDs = append(d.pairIDs[:0], sum.PairIDs...)
	d.eventIDs = append(d.eventIDs[:0], sum.EventIDs...)
	d.mut = mut
	d.seed = seed
	d.failure = res.Failure
	d.decisions = nil
	if res.Failure != nil {
		d.decisions = res.Trace.ThreadOrder()
	}
	if !r.opts.DisableProactive {
		s.epochSatisfied += int64(s.sched.SatisfiedCount())
		s.epochRejected += int64(s.sched.RejectedCount())
	}
	s.rec.Reclaim(res.Trace)
	d.done = true
	return true
}

// failKey is the failure-signature dedup key of the merge barrier.
func failKey(f *exec.Failure) string {
	return f.Kind.String() + "|" + strconv.Itoa(int(f.Thread)) + "|" + f.Loc + "|" + f.Msg
}

// mergeEpoch is the barrier: fold the epoch's digests into global state
// in global execution order. Shard-local event and pair IDs remap into
// the campaign table, feedback and the event pool observe exactly what
// they would have seen sequentially, failure signatures deduplicate,
// and interesting mutants join the corpus — all on the coordinator, so
// the fold is single-threaded and its order is the plan order. Returns
// true when the epoch was interrupted (some digest never executed);
// everything before the gap is already merged.
func (r *runner) mergeEpoch(plan []*core.Entry, epoch int) (interrupted bool) {
	start := time.Now()
	rep := r.rep
	for i := range plan {
		d := &r.digests[i]
		if !d.done {
			interrupted = true
			break
		}
		rm := r.shards[d.shard].remap
		r.pairScratch = r.pairScratch[:0]
		for _, pid := range d.pairIDs {
			r.pairScratch = append(r.pairScratch, rm.RemapPair(pid))
		}
		obs := r.fb.ObserveIDs(r.pairScratch, d.sig)
		for _, id := range d.eventIDs {
			gid := rm.Remap(id)
			r.pool.AddEvent(gid, r.intern.Event(gid))
		}
		rep.Executions++
		if plan[i].Sig == 0 {
			// Seed entries bind to their first observed combination, as in
			// the sequential loop — just one barrier later.
			plan[i].Sig = obs.Sig
		}
		crashed := d.failure != nil
		if t := r.tel; t != nil {
			t.Add(telemetry.MSchedulesExecuted, 1, r.labels...)
			if obs.NewPairs > 0 {
				t.Add(telemetry.MRFPairsNew, int64(obs.NewPairs), r.labels...)
			}
			if obs.NewSig {
				t.Add(telemetry.MRFCombosNew, 1, r.labels...)
			}
			if crashed {
				t.Add(telemetry.MSchedulesCrashed, 1, r.labels...)
			}
		}
		if crashed {
			if k := failKey(d.failure); !r.failSeen[k] {
				r.failSeen[k] = true
				rep.Failures = append(rep.Failures, core.FailureRecord{
					Schedule:  d.mut,
					Seed:      d.seed,
					Execution: rep.Executions,
					Failure:   d.failure,
					Decisions: d.decisions,
				})
			}
			if r.opts.FailureObserver != nil {
				r.opts.FailureObserver(&exec.Result{
					Program: r.name,
					Seed:    d.seed,
					Trace:   &exec.Trace{Decisions: d.decisions},
					Failure: d.failure,
				})
			}
			if rep.FirstBug == 0 {
				rep.FirstBug = rep.Executions
				if t := r.tel; t != nil {
					t.Emit(telemetry.EvFirstBug, telemetry.Fields{
						"program":   r.name,
						"execution": rep.Executions,
						"kind":      d.failure.Kind.String(),
						"msg":       d.failure.Msg,
					})
				}
			}
			if r.opts.StopAtFirstBug {
				r.stopped = true
			}
		}
		if !r.opts.DisableFeedback && r.fb.Interesting(obs, crashed) {
			if _, added := r.corpus.Add(&core.Entry{Schedule: d.mut, Sig: obs.Sig, Perf: obs.NewPairs}); added {
				if t := r.tel; t != nil {
					t.Add(telemetry.MCorpusAdds, 1, r.labels...)
					t.Set(telemetry.MCorpusSize, int64(r.corpus.Len()), r.labels...)
					t.Emit(telemetry.EvInteresting, telemetry.Fields{
						"program":     r.name,
						"execution":   rep.Executions,
						"new_pairs":   obs.NewPairs,
						"new_combo":   obs.NewSig,
						"crashed":     crashed,
						"corpus_size": r.corpus.Len(),
					})
				}
			}
		}
		if r.stopped {
			// Deterministic truncation: executions planned after the first
			// bug are discarded un-merged, whichever shard ran them.
			break
		}
	}
	if t := r.tel; t != nil {
		for _, s := range r.shards {
			if s.epochExecs > 0 {
				t.Add(telemetry.MShardExecs, s.epochExecs, s.labels...)
			}
			if s.epochSatisfied > 0 {
				t.Add(telemetry.MConstraintSatisfied, s.epochSatisfied, r.labels...)
			}
			if s.epochRejected > 0 {
				t.Add(telemetry.MConstraintRejected, s.epochRejected, r.labels...)
			}
			s.epochExecs, s.epochSatisfied, s.epochRejected = 0, 0, 0
		}
		t.Observe(telemetry.MShardMergeNS, time.Since(start).Nanoseconds(), r.labels...)
		t.Emit(telemetry.EvEpochMerge, telemetry.Fields{
			"program":     r.name,
			"epoch":       epoch,
			"executions":  rep.Executions,
			"corpus_size": r.corpus.Len(),
		})
	}
	return interrupted
}

// finish copies final feedback statistics into the report and publishes
// the utilization gauge.
func (r *runner) finish() *core.Report {
	rep := r.rep
	rep.CorpusSize = r.corpus.Len()
	rep.UniquePairs = r.fb.UniquePairs()
	rep.UniqueSigs = r.fb.UniqueSigs()
	rep.SigFrequencies = r.fb.SigFrequencies()
	if t := r.tel; t != nil {
		t.Set(telemetry.MCorpusSize, int64(rep.CorpusSize), r.labels...)
		wall := time.Since(r.start)
		if wall > 0 {
			var busy time.Duration
			for _, s := range r.shards {
				busy += s.busy
			}
			pct := int64(busy * 100 / (wall * time.Duration(len(r.shards))))
			t.Set(telemetry.MShardUtilization, min(pct, 100), r.labels...)
		}
	}
	return rep
}
