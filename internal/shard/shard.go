// Package shard executes one fuzzing campaign across W worker shards:
// each epoch runs one fleet cell per shard, and every cell claims planned
// executions from one shared index until the plan is used up. Shards
// share only the campaign's intern table on the hot path; deterministic
// epoch merge barriers fold their observations back into campaign-global
// state. See DESIGN.md §13 for the full architecture and determinism
// contract.
package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
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

	// Shards is the worker count W (values < 1 mean 1). Each shard runs
	// on its own recycler and proactive scheduler, drawn warm from a
	// process-wide pool; the report is identical for every value.
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
// the merge barrier folds, kept past the trace whose backing arrays
// recycle into the shard's next execution. The summary survives the
// trace's Reclaim, and its IDs come from the campaign's one table.
type digest struct {
	done bool // false = execution abandoned (ctx cancelled)
	core.Execution
}

// execState is what one shard executes on: a trace recycler, a
// proactive scheduler, and the RNG reseeded before every execution. None
// of it carries anything from one execution into the next but capacity,
// so it outlives its campaign in warmStates and the next campaign — on
// any program — starts on warm arrays.
type execState struct {
	rec   *exec.Recycler
	sched *core.Proactive
	src   rand.Source
	rng   *rand.Rand
}

// warmStates pools execState across campaigns. A campaign takes one per
// shard in newRunner and returns them in finish; a campaign that panics
// never returns them, since a panicking execution can leave its
// recycler's arrays detached.
var warmStates = sync.Pool{New: func() any {
	src := rand.NewSource(1) // reseeded per execution
	return &execState{rec: exec.NewRecycler(), sched: core.NewProactive(), src: src, rng: rand.New(src)}
}}

// shardState is one worker shard's private world for one campaign: a
// pooled execState plus its per-campaign accounting. The only mutable
// state the shards share on the execution hot path is the campaign's
// intern table, whose hits take a read lock, and the epoch's claim index.
type shardState struct {
	*execState

	// epochExecs counts the executions this shard ran in the current
	// epoch, folded into shard_execs at the barrier.
	epochExecs int64
	// busy accumulates the durations of this shard's epoch cells, for the
	// utilization gauge.
	busy time.Duration

	labels []telemetry.Label // {program, shard}
}

// runner is the deterministic sharded campaign: a coordinator that
// plans epochs from frozen global state, W shards that each run as one
// fleet cell per epoch and claim the plan's executions one at a time,
// and a merge barrier that folds shard observations back into global
// state in global execution order.
type runner struct {
	opts Options

	// Campaign-global state, stage cursor included. Only the coordinator
	// touches it: shards read the frozen corpus entries and event pool
	// during an epoch and write nothing but their own digest slots and
	// first sightings into the intern table.
	c *core.Campaign

	shards  []*shardState
	plan    []*core.Entry // reused epoch plan (one entry per execution)
	digests []digest      // reused epoch digest slots

	// Epoch execution: cell w runs shard w's claim loop, built once. The
	// cells claim plan slots from next and read the epoch's first global
	// execution index from epochStart.
	cells      []fleet.Cell[struct{}]
	next       atomic.Int64
	epochStart int

	start time.Time
}

func newRunner(name string, prog exec.Program, opts Options) *runner {
	r := &runner{
		opts: opts,
		c: core.NewCampaign(name, prog, core.Options{
			Budget:           opts.Budget,
			MaxSteps:         opts.MaxSteps,
			Power:            opts.Power,
			Mutator:          opts.Mutator,
			DisableFeedback:  opts.DisableFeedback,
			DisableProactive: opts.DisableProactive,
			StopAtFirstBug:   opts.StopAtFirstBug,
			InitialCorpus:    opts.InitialCorpus,
			Telemetry:        opts.Telemetry,
		}),
		plan:    make([]*core.Entry, 0, opts.Epoch),
		digests: make([]digest, opts.Epoch),
	}
	// The barrier keeps one failure record per failure signature (DESIGN.md §13).
	r.c.DedupFailures()
	for w := 0; w < opts.Shards; w++ {
		s := &shardState{
			execState: warmStates.Get().(*execState),
			labels:    []telemetry.Label{telemetry.L("program", name), telemetry.L("shard", strconv.Itoa(w))},
		}
		r.shards = append(r.shards, s)
		r.cells = append(r.cells, fleet.Cell[struct{}]{
			ID: "shard " + strconv.Itoa(w),
			Run: func(ctx context.Context) (struct{}, error) {
				for {
					i := int(r.next.Add(1)) - 1
					if i >= len(r.plan) || !r.execOne(ctx, s, r.plan[i], r.epochStart+i, &r.digests[i]) {
						return struct{}{}, nil
					}
					s.epochExecs++
				}
			},
		})
	}
	return r
}

func (r *runner) run(ctx context.Context) *core.Report {
	r.start = time.Now()
	epoch := 0
	ramp := 1
	for !r.c.Done() && ctx.Err() == nil {
		k := min(ramp, r.opts.Epoch, r.opts.Budget-r.c.Executions())
		ramp = min(ramp*2, r.opts.Epoch)
		plan := r.planEpoch(k)
		r.runEpoch(ctx, plan, r.c.Executions())
		interrupted := r.mergeEpoch(plan, epoch)
		epoch++
		if interrupted {
			break
		}
	}
	return r.finish()
}

// planEpoch freezes the next k executions: it walks the campaign's stage
// cursor (the sequential loop's round-robin + power schedule) k times
// against the current — merged — global state, and returns the chosen
// entry for each of the epoch's execution slots. Feedback does not move
// during an epoch, so every energy decision in the plan depends only on
// state as of the previous barrier: this is what makes the schedule
// independent of shard count.
func (r *runner) planEpoch(k int) []*core.Entry {
	plan := r.plan[:0]
	for len(plan) < k {
		plan = append(plan, r.c.Next())
	}
	r.plan = plan
	return plan
}

// runEpoch runs min(W, len(plan)) shards as fleet cells, each claiming
// the next unclaimed plan slot until the plan is used up (or a cancelled
// ctx abandons it), so every shard stays busy while any slot is left.
// Shards fill disjoint digest slots, so they share nothing mutable. A
// panicking shard re-panics here, on the caller's goroutine, after the
// wave: folding it as an interrupted prefix would pass a crash off as a
// cancellation.
func (r *runner) runEpoch(ctx context.Context, plan []*core.Entry, epochStart int) {
	for i := range plan {
		r.digests[i].done = false
	}
	r.epochStart = epochStart
	r.next.Store(0)
	results := fleet.Run(ctx, r.cells[:min(len(r.cells), len(plan))], fleet.Options{Workers: len(r.cells)})
	for w, res := range results {
		if res.Panicked {
			panic(fmt.Sprintf("shard: %s: %v\n%s", res.Cell, res.Err, res.Stack))
		}
		r.shards[w].busy += res.Duration
	}
}

// execOne runs one planned execution on shard s and records its digest.
// The RNG is reseeded from (campaign seed, global index), so mutation
// and execution seed are a pure function of the slot — not of the shard
// or of what the shard ran before. Returns false when the execution was
// abandoned to a cancelled ctx (the digest slot stays un-done).
func (r *runner) execOne(ctx context.Context, s *shardState, entry *core.Entry, gidx int, d *digest) bool {
	s.src.Seed(mixSeed(r.opts.Seed, gidx))
	res, x := r.c.Execute(ctx, entry, s.sched, s.rng, s.rec)
	s.rec.Reclaim(res.Trace)
	if res.Cancelled {
		return false
	}
	d.Execution, d.done = x, true
	return true
}

// mergeEpoch is the barrier: fold the epoch's digests into the campaign
// in global execution order (core.Campaign.Fold). The summaries' IDs
// already come from the campaign table and are compared for equality
// only, so the racy order the shards interned in never shows. The fold
// runs on the coordinator, so it is single-threaded and its order is the
// plan order. Under stop-at-first-bug it truncates at the first failing
// execution: digests planned after it are discarded un-merged, whichever
// shard ran them. Returns true when the epoch was interrupted (some
// digest never executed); everything before the gap is already merged.
func (r *runner) mergeEpoch(plan []*core.Entry, epoch int) (interrupted bool) {
	start := time.Now()
	for i := range plan {
		d := &r.digests[i]
		if !d.done {
			interrupted = true
			break
		}
		stop := r.c.Fold(plan[i], &d.Execution)
		if d.Failure != nil && r.opts.FailureObserver != nil {
			r.opts.FailureObserver(&exec.Result{
				Program: r.c.Name(),
				Seed:    d.Seed,
				Trace:   &exec.Trace{Decisions: d.Decisions},
				Failure: d.Failure,
			})
		}
		if stop {
			break
		}
	}
	if t, labels := r.c.Telemetry(); t != nil {
		for _, s := range r.shards {
			if s.epochExecs > 0 {
				t.Add(telemetry.MShardExecs, s.epochExecs, s.labels...)
			}
			s.epochExecs = 0
		}
		t.Observe(telemetry.MShardMergeNS, time.Since(start).Nanoseconds(), labels...)
		t.Emit(telemetry.EvEpochMerge, telemetry.Fields{
			"program":     r.c.Name(),
			"epoch":       epoch,
			"executions":  r.c.Executions(),
			"corpus_size": r.c.CorpusSize(),
		})
	}
	return interrupted
}

// finish completes the campaign's report, publishes the utilization
// gauge, and returns the shards' execution state to the pool.
func (r *runner) finish() *core.Report {
	for _, s := range r.shards {
		warmStates.Put(s.execState)
	}
	if t, labels := r.c.Telemetry(); t != nil {
		wall := time.Since(r.start)
		if wall > 0 {
			var busy time.Duration
			for _, s := range r.shards {
				busy += s.busy
			}
			pct := int64(busy * 100 / (wall * time.Duration(len(r.shards))))
			t.Set(telemetry.MShardUtilization, min(pct, 100), labels...)
		}
	}
	return r.c.Finish()
}
