package main

import (
	"math/rand"
	"runtime"
	"time"

	"rff/internal/core"
	"rff/internal/exec"
)

// layer is one timed stage of a fuzz iteration, as seen from outside
// through the public call that enters it.
type layer int

const (
	lPower    layer = iota // Corpus.PickNext + Corpus.Energy, once per stage
	lMutate                // core.Mutate + the execution seed draw + SetSchedule
	lEngine                // exec.Run minus the scheduler callbacks inside it
	lPick                  // Proactive.Begin + Proactive.Pick
	lExecuted              // Proactive.Executed + Proactive.End
	lSummary               // Trace.Summary, built before Observe so Observe hits the memo
	lObserve               // Feedback.Observe + EventPool.AddTrace
	lCorpus                // Feedback.Interesting + Corpus.Add
	lReclaim               // Recycler.Reclaim
	nLayers
)

var layerNames = [nLayers]string{
	lPower:    "core.power",
	lMutate:   "core.mutate",
	lEngine:   "exec.engine",
	lPick:     "core.pick",
	lExecuted: "core.executed",
	lSummary:  "exec.summary",
	lObserve:  "core.observe",
	lCorpus:   "core.corpus_add",
	lReclaim:  "exec.reclaim",
}

// layerTrace accumulates one traced pass over a set of campaigns. In
// time mode each layer gathers nanoseconds; in alloc mode it gathers heap
// allocations (runtime.MemStats.Mallocs deltas, which stop the world and
// so are taken in a separate pass whose timings are discarded).
type layerTrace struct {
	allocMode bool
	ms        runtime.MemStats
	t0        time.Time

	cost      [nLayers]int64 // ns or allocations per layer
	runCost   int64          // exec.Run in total, scheduler callbacks included
	coldCost  int64          // first exec.Run of each campaign
	iterCost  int64          // the whole traced loop of each campaign
	campaigns int

	execs, steps, picks, executedCalls int
	stages, skips, adds                int
	positive, satisfied                int
	corpusSize                         int
}

func newLayerTrace(allocMode bool) *layerTrace {
	return &layerTrace{allocMode: allocMode, t0: time.Now()}
}

// clock reads the pass's meter: monotonic nanoseconds, or cumulative
// heap allocations in alloc mode.
func (lt *layerTrace) clock() int64 {
	if lt.allocMode {
		runtime.ReadMemStats(&lt.ms)
		return int64(lt.ms.Mallocs)
	}
	return int64(time.Since(lt.t0))
}

func (lt *layerTrace) add(l layer, since int64) { lt.cost[l] += lt.clock() - since }

// timedSched wraps the proactive scheduler and times the engine's calls
// into it, so the engine's self time is exec.Run minus these.
type timedSched struct {
	p  *core.Proactive
	lt *layerTrace
}

func (s *timedSched) Name() string { return s.p.Name() }

func (s *timedSched) Begin(seed int64) {
	t := s.lt.clock()
	s.p.Begin(seed)
	s.lt.add(lPick, t)
}

func (s *timedSched) Pick(v *exec.View) int {
	t := s.lt.clock()
	i := s.p.Pick(v)
	s.lt.add(lPick, t)
	s.lt.picks++
	return i
}

func (s *timedSched) Executed(ev exec.Event) {
	t := s.lt.clock()
	s.p.Executed(ev)
	s.lt.add(lExecuted, t)
	s.lt.executedCalls++
}

func (s *timedSched) End(tr *exec.Trace) {
	t := s.lt.clock()
	s.p.End(tr)
	s.lt.add(lExecuted, t)
}

// tracedCampaign drives core.Fuzzer's loop (Algorithm 1 with default
// power and mutator settings, feedback and proactive scheduling on, no
// telemetry) through the public call of each layer, metering every call.
// Its report must equal core.Fuzzer's for the same options; the traced
// workloads check that it does.
func tracedCampaign(lt *layerTrace, name string, prog exec.Program, opts core.Options) *core.Report {
	fb := core.NewFeedback()
	corpus := core.NewCorpus()
	pool := core.NewEventPool()
	ps := core.NewProactive()
	rng := rand.New(rand.NewSource(opts.Seed))
	intern := exec.NewInternTable()
	rec := exec.NewRecycler()
	var sch exec.Scheduler = ps
	if !lt.allocMode {
		// Scheduler callbacks are too fine-grained to read MemStats in;
		// alloc mode charges them to the engine.
		sch = &timedSched{p: ps, lt: lt}
	}

	rep := &core.Report{Program: name}
	var cur *core.Entry
	energy := 0
	stopped := false
	start := lt.clock()
	for !stopped && rep.Executions < opts.Budget {
		if energy <= 0 {
			t := lt.clock()
			cur = corpus.PickNext()
			energy = corpus.Energy(cur, fb, opts.Power)
			lt.add(lPower, t)
			lt.stages++
			if energy == 0 {
				lt.skips++
			}
			continue
		}
		energy--

		t := lt.clock()
		mut := core.Mutate(cur.Schedule, pool, rng, opts.Mutator)
		seed := rng.Int63()
		ps.SetSchedule(mut)
		lt.add(lMutate, t)

		t = lt.clock()
		res := exec.Run(name, prog, exec.Config{
			Scheduler: sch,
			Seed:      seed,
			MaxSteps:  opts.MaxSteps,
			Intern:    intern,
			Recycle:   rec,
		})
		d := lt.clock() - t
		lt.runCost += d
		if rep.Executions == 0 {
			lt.coldCost += d
		}
		rep.Executions++
		lt.execs++
		lt.steps += res.Trace.Len()

		t = lt.clock()
		res.Trace.Summary()
		lt.add(lSummary, t)

		t = lt.clock()
		obs := fb.Observe(res.Trace)
		pool.AddTrace(res.Trace)
		lt.add(lObserve, t)

		if cur.Sig == 0 {
			cur.Sig = obs.Sig
		}
		for _, c := range mut.Constraints() {
			if !c.Negated {
				lt.positive++
			}
		}
		lt.satisfied += ps.SatisfiedCount()
		crashed := res.Buggy()
		if crashed {
			rep.Failures = append(rep.Failures, core.FailureRecord{
				Schedule:  mut,
				Seed:      seed,
				Execution: rep.Executions,
				Failure:   res.Failure,
				Decisions: res.Trace.ThreadOrder(),
			})
			if rep.FirstBug == 0 {
				rep.FirstBug = rep.Executions
			}
			stopped = opts.StopAtFirstBug
		}

		t = lt.clock()
		if fb.Interesting(obs, crashed) {
			if _, added := corpus.Add(&core.Entry{Schedule: mut, Sig: obs.Sig, Perf: obs.NewPairs}); added {
				lt.adds++
			}
		}
		lt.add(lCorpus, t)

		t = lt.clock()
		rec.Reclaim(res.Trace)
		lt.add(lReclaim, t)
	}
	lt.iterCost += lt.clock() - start
	lt.campaigns++
	lt.corpusSize += corpus.Len()

	rep.CorpusSize = corpus.Len()
	rep.UniquePairs = fb.UniquePairs()
	rep.UniqueSigs = fb.UniqueSigs()
	rep.SigFrequencies = fb.SigFrequencies()
	return rep
}

// iterationMetrics sets the per-layer metrics of the fuzz iteration from
// a time-mode pass and an alloc-mode pass.
func iterationMetrics(o *outcome, lt, la *layerTrace) {
	if lt.execs == 0 || la.execs == 0 {
		return
	}
	ns := lt.cost
	// Scheduler callbacks ran inside exec.Run; the engine keeps the rest.
	ns[lEngine] = lt.runCost - ns[lPick] - ns[lExecuted]
	execs := float64(lt.execs)
	perExecUS := func(l layer) float64 { return float64(ns[l]) / execs / 1e3 }

	o.set("exec.engine_ns_per_step", "ns", float64(ns[lEngine])/float64(lt.steps))
	o.set("exec.steps_per_exec", "count", float64(lt.steps)/execs)
	o.set("exec.run_us", "us", float64(lt.runCost)/execs/1e3)
	o.set("exec.allocs_per_run", "count", float64(la.runCost)/float64(la.execs))
	o.set("exec.cold_run_us", "us", float64(lt.coldCost)/float64(lt.campaigns)/1e3)
	o.set("exec.summary_us", "us", perExecUS(lSummary))
	o.set("exec.reclaim_us", "us", perExecUS(lReclaim))
	o.set("core.pick_ns", "ns", float64(ns[lPick])/float64(lt.picks))
	o.set("core.executed_ns", "ns", float64(ns[lExecuted])/float64(lt.executedCalls))
	o.set("core.mutate_us", "us", perExecUS(lMutate))
	o.set("core.observe_us", "us", perExecUS(lObserve))
	o.set("core.power_us", "us", perExecUS(lPower))
	o.set("core.corpus_add_us", "us", perExecUS(lCorpus))

	o.set("core.stage_skip_frac", "fraction", float64(lt.skips)/float64(lt.stages))
	o.set("core.interesting_frac", "fraction", float64(lt.adds)/execs)
	if lt.positive > 0 {
		o.set("core.constraint_sat_frac", "fraction", float64(lt.satisfied)/float64(lt.positive))
	}
	o.set("core.corpus_size", "count", float64(lt.corpusSize)/float64(lt.campaigns))

	var timed, allocated int64
	for l := layer(0); l < nLayers; l++ {
		timed += ns[l]
		o.set(layerNames[l]+".share_pct", "%", 100*float64(ns[l])/float64(lt.iterCost))
	}
	o.set("untimed.share_pct", "%", 100*float64(lt.iterCost-timed)/float64(lt.iterCost))

	// Alloc mode charges the scheduler callbacks to the engine, so the
	// engine's row is exec.allocs_per_run.
	la.cost[lEngine] = la.runCost
	for l := layer(0); l < nLayers; l++ {
		allocated += la.cost[l]
		if l != lEngine && l != lPick && l != lExecuted {
			o.set(layerNames[l]+".allocs_per_exec", "count", float64(la.cost[l])/float64(la.execs))
		}
	}
	o.set("untimed.allocs_per_exec", "count", float64(la.iterCost-allocated)/float64(la.execs))
	o.notes["traced_execs"] = lt.execs
	o.notes["traced_campaigns"] = lt.campaigns
	o.notes["alloc_traced_execs"] = la.execs
}
