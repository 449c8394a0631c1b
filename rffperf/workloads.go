package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/shard"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// maxSteps is the per-execution step bound of every workload (rffbench's
// default).
const maxSteps = 5000

// Workload sizes. A round runs one set; README.md says why each workload
// exists and how these were chosen.
const (
	deepBudget = 100 // schedules per deep campaign
	wideBudget = 24  // schedules per wide campaign
	huntBudget = 300 // schedules per bughunt trial
	huntTrials = 6   // trials per bughunt program per round
)

// progCount is a program and how many of its campaigns a round runs.
type progCount struct {
	name string
	n    int
}

var (
	// Each workload runs two campaigns of one program to every campaign
	// of the other, which keeps the median trial inside one program's
	// mode of campaign times: with two equally common modes it would jump
	// between them from seed to seed.
	deepPrograms = []progCount{{"CS/twostage_20", 16}, {"SafeStack", 8}}
	widePrograms = []progCount{{"CS/reorder_100", 4}, {"CS/twostage_100", 2}}
)

// campaignSpec is one fuzzing campaign of a workload's set.
type campaignSpec struct {
	name string
	prog exec.Program
	opts core.Options
}

// campaignSet is round r of a campaign workload: each program's campaigns,
// interleaved, its k-th seeded by campaign.TrialSeed from the workload
// seed and the index r*n+k, so every round runs fresh campaigns.
func campaignSet(seed int64, tag string, programs []progCount, budget, r int) []campaignSpec {
	var set []campaignSpec
	for k := 0; len(set) < setSize(programs); k++ {
		for _, pc := range programs {
			if k >= pc.n {
				continue
			}
			p := bench.MustGet(pc.name)
			set = append(set, campaignSpec{name: p.Name, prog: p.Body, opts: core.Options{
				Budget:   budget,
				MaxSteps: maxSteps,
				Seed:     campaign.TrialSeed(seed, tag, p.Name, r*pc.n+k),
			}})
		}
	}
	return set
}

func setSize(programs []progCount) int {
	n := 0
	for _, pc := range programs {
		n += pc.n
	}
	return n
}

func deepSet(seed int64, r int) []campaignSpec {
	return campaignSet(seed, "deep", deepPrograms, deepBudget, r)
}

func wideSet(seed int64, r int) []campaignSpec {
	return campaignSet(seed, "wide", widePrograms, wideBudget, r)
}

// wideShards is the shard count of the wide workload: 2, or fewer on a
// host with fewer CPUs.
func wideShards() int { return min(2, numThreads()) }

func shardOptions(c campaignSpec, shards int) shard.Options {
	return shard.Options{Budget: c.opts.Budget, MaxSteps: c.opts.MaxSteps, Seed: c.opts.Seed, Shards: shards}
}

// --- deep and wide: campaigns past the first bug ---------------------------

func runDeep(cfg config) *outcome {
	o := newOutcome()
	setup := func() {
		for _, c := range deepSet(cfg.seed, 0) {
			core.NewFuzzer(c.name, c.prog, c.opts)
		}
	}
	runCampaigns(o, cfg, setSize(deepPrograms), 1, setup,
		func(r int) []campaignSpec { return deepSet(cfg.seed, r) },
		func(c campaignSpec) *core.Report { return core.NewFuzzer(c.name, c.prog, c.opts).Run() })
	return o
}

func runWide(cfg config) *outcome {
	o := newOutcome()
	shards := wideShards()
	setup := func() {
		for _, c := range wideSet(cfg.seed, 0) {
			_ = shardOptions(c, shards)
		}
	}
	runCampaigns(o, cfg, setSize(widePrograms), shards, setup,
		func(r int) []campaignSpec { return wideSet(cfg.seed, r) },
		func(c campaignSpec) *core.Report { return shard.Fuzz(c.name, c.prog, shardOptions(c, shards)) })
	o.notes["shards"] = shards
	return o
}

// runCampaigns times rounds of campaigns and gates each round: every
// failure of every campaign must replay.
func runCampaigns(o *outcome, cfg config, n, threads int, setup func(), setFor func(r int) []campaignSpec, runOne func(campaignSpec) *core.Report) {
	var set []campaignSpec
	reps := make([]*core.Report, n)
	var bs bugStats
	ls := repeatSet(n, cfg.seconds, threads, setup, func(r, i int) int {
		if i == 0 {
			set = setFor(r)
		}
		reps[i] = runOne(set[i])
		return reps[i].Executions
	}, func(r int) {
		for i, rep := range reps {
			if rep == nil {
				break // the last round stopped early
			}
			bs.addFailures(failureExecutions(rep))
			bs.addPairs(rep.UniquePairs)
			if err := replayReport(set[i].prog, maxSteps, rep); err != nil {
				o.problem("seed %d: %v", set[i].opts.Seed, err)
				o.failed++
			}
		}
		if r == 0 {
			o.notes["round1_digest"] = digest(reps)
		}
		clear(reps)
	})
	o.attempted = ls.trials
	endToEnd(o, ls, bs)
}

// --- bughunt: schedules to the first bug over the benchmark suite ----------

// huntSlow are the three programs of the paper's 49 that take 4-10 ms
// per execution, 10-100 times the others. With them in, half a round's
// time went to their dozen trials, so how soon RFF happened to hit their
// bugs set the round's throughput, and it spread 10-30% from seed to
// seed. wide measures them.
var huntSlow = map[string]bool{"CS/twostage_50": true, "CS/twostage_100": true, "CS/reorder_100": true}

// huntPrograms is every registered program outside the Extras suite (the
// paper's 49 plus the channel suite) that has a planted bug, except
// huntSlow: 49 programs. A program without a bug only adds trials that
// run the whole budget.
func huntPrograms() []bench.Program {
	var ps []bench.Program
	for _, p := range bench.All() {
		if p.Suite != "Extras" && p.Bug != bench.BugNone && !huntSlow[p.Name] {
			ps = append(ps, p)
		}
	}
	return ps
}

// failRec is one failing execution seen by a tool's result observer.
type failRec struct {
	program   string
	kind      exec.FailureKind
	decisions []exec.ThreadID
}

// huntResult is what one bughunt trial produced.
type huntResult struct {
	prog  bench.Program
	seed  int64
	out   campaign.Outcome
	pairs int
	fails []failRec
}

func runBughunt(cfg config) *outcome {
	o := newOutcome()
	// The observer records each trial's failing schedules for replay and
	// counts its distinct reads-from pairs (Summary is memoized, so the
	// fuzzer's own Observe reuses the summary built here).
	var cur *huntResult
	seen := make(map[exec.PairID]struct{})
	obs := func(res *exec.Result) {
		for _, id := range res.Trace.Summary().PairIDs {
			seen[id] = struct{}{}
		}
		if res.Failure != nil {
			cur.fails = append(cur.fails, failRec{res.Program, res.Failure.Kind, res.Trace.ThreadOrder()})
		}
	}
	resolve := func() (campaign.Tool, []bench.Program) {
		tool, err := strategy.Resolve("rff", strategy.Config{Observer: obs})
		if err != nil {
			panic(err)
		}
		return tool, huntPrograms()
	}
	tool, progs := resolve()

	n := len(progs) * huntTrials
	trials := make([]*huntResult, 0, n)
	round1 := make([]campaign.Outcome, 0, n)
	var bs bugStats
	ctx := context.Background()
	ls := repeatSet(n, cfg.seconds, 1, func() { resolve() }, func(r, i int) int {
		p := progs[i/huntTrials]
		cur = &huntResult{prog: p, seed: campaign.TrialSeed(cfg.seed, tool.Name(), p.Name, r*huntTrials+i%huntTrials)}
		clear(seen)
		cur.out = tool.Run(ctx, p, huntBudget, maxSteps, cur.seed)
		cur.pairs = len(seen)
		trials = append(trials, cur)
		return cur.out.Executions
	}, func(r int) {
		for _, t := range trials {
			if r == 0 {
				round1 = append(round1, t.out)
			}
			gateHuntTrial(o, t, &bs)
		}
		trials = trials[:0]
	})
	o.attempted = ls.trials
	o.notes["round1_digest"] = digest(round1)
	endToEnd(o, ls, bs)
	return o
}

// gateHuntTrial checks one bughunt trial and adds its search counts to
// bs: it must not have errored, it must have reported exactly one
// failing schedule if and only if it found its bug, and that failure
// must replay.
func gateHuntTrial(o *outcome, t *huntResult, bs *bugStats) {
	switch {
	case t.out.Errored():
		o.problem("%s: trial error: %s", t.prog.Name, t.out.Err)
		o.failed++
		return
	case t.out.Found() != (len(t.fails) == 1):
		o.problem("%s: first bug %d but %d failing schedules observed", t.prog.Name, t.out.FirstBug, len(t.fails))
		o.failed++
		return
	}
	if t.out.Found() {
		bs.addFailures([]int{t.out.FirstBug})
	} else {
		bs.addFailures(nil)
	}
	bs.addPairs(t.pairs)
	for _, f := range t.fails {
		if err := replayFailure(t.prog.Name, t.prog.Body, maxSteps, f.kind, f.decisions); err != nil {
			o.problem("trial seed %d: %v", t.seed, err)
			o.failed++
		}
	}
}

// --- traced runs -----------------------------------------------------------

// traceCampaigns runs each campaign twice: once through core.Fuzzer
// untraced (the reference), once through tracedCampaign in time mode.
// Rounds run until seconds have elapsed, at least one whole round. The
// first campaign of each program is then traced again in alloc mode.
// Every traced report must equal its reference.
func traceCampaigns(o *outcome, seconds float64, setFor func(r int) []campaignSpec) {
	lt, la := newLayerTrace(false), newLayerTrace(true)
	var refNS, tracedNS, newFuzzerNS int64
	check := func(c campaignSpec, want, got *core.Report, pass string) {
		o.attempted++
		if d := diffReports(want, got); d != "" {
			o.problem("%s seed %d: %s trace differs from core.Fuzzer: %s", c.name, c.opts.Seed, pass, d)
			o.failed++
		}
	}
	first := setFor(0)
	refs := make([]*core.Report, len(first))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		set := first
		if r > 0 {
			set = setFor(r)
		}
		for i, c := range set {
			if r > 0 && !time.Now().Before(deadline) {
				break
			}
			// Alternate which pass goes first, so neither always runs on
			// caches the other warmed.
			var ref, got *core.Report
			runRef := func() {
				t := time.Now()
				f := core.NewFuzzer(c.name, c.prog, c.opts)
				newFuzzerNS += int64(time.Since(t))
				ref = f.Run()
				refNS += int64(time.Since(t))
			}
			runTraced := func() {
				t := time.Now()
				got = tracedCampaign(lt, c.name, c.prog, c.opts)
				tracedNS += int64(time.Since(t))
			}
			if lt.campaigns%2 == 0 {
				runRef()
				runTraced()
			} else {
				runTraced()
				runRef()
			}
			if r == 0 {
				refs[i] = ref
			}
			check(c, ref, got, "timed")
		}
	}
	done := make(map[string]bool)
	for i, c := range first {
		if !done[c.name] {
			done[c.name] = true
			check(c, refs[i], tracedCampaign(la, c.name, c.prog, c.opts), "alloc")
		}
	}
	o.set("core.new_fuzzer_us", "us", float64(newFuzzerNS)/float64(lt.campaigns)/1e3)
	o.set("trace_overhead_pct", "%", 100*(float64(tracedNS)/float64(refNS)-1))
	iterationMetrics(o, lt, la)
}

func traceDeep(cfg config) *outcome {
	o := newOutcome()
	traceCampaigns(o, cfg.seconds, func(r int) []campaignSpec { return deepSet(cfg.seed, r) })
	return o
}

func traceBughunt(cfg config) *outcome {
	o := newOutcome()
	name := strategy.MustResolve("rff", strategy.Config{}).Name()
	traceCampaigns(o, cfg.seconds, func(r int) []campaignSpec {
		var set []campaignSpec
		for _, p := range huntPrograms() {
			for k := 0; k < huntTrials; k++ {
				set = append(set, campaignSpec{name: p.Name, prog: p.Body, opts: core.Options{
					Budget:         huntBudget,
					MaxSteps:       maxSteps,
					Seed:           campaign.TrialSeed(cfg.seed, name, p.Name, r*huntTrials+k),
					StopAtFirstBug: true,
				}})
			}
		}
		return set
	})
	return o
}

// traceWide decomposes the wide programs' sequential iteration, then
// runs the first round's campaigns sharded with a telemetry sink for the
// shard metrics and checks that each report is byte-identical to one
// shard's.
func traceWide(cfg config) *outcome {
	o := newOutcome()
	traceCampaigns(o, cfg.seconds*0.8, func(r int) []campaignSpec { return wideSet(cfg.seed, r) })
	shards := wideShards()
	var sh shardTelemetry
	for _, c := range wideSet(cfg.seed, 0) {
		o.attempted++
		multi := sh.run(c, shards)
		single := shard.Fuzz(c.name, c.prog, shardOptions(c, 1))
		if a, b := mustJSON(multi), mustJSON(single); a != b || diffReports(single, multi) != "" {
			o.problem("%s seed %d: %d-shard report differs from 1 shard", c.name, c.opts.Seed, shards)
			o.failed++
		}
	}
	sh.metrics(o)
	o.notes["shards"] = shards
	return o
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("rffperf: encoding result: %v", err))
	}
	return string(b)
}

// shardTelemetry accumulates the shard series of sharded campaigns run
// with a telemetry hub.
type shardTelemetry struct {
	campaigns                      int
	mergeNS, wallNS, steals, utilP int64
}

func (s *shardTelemetry) run(c campaignSpec, shards int) *core.Report {
	hub := telemetry.NewHub()
	opts := shardOptions(c, shards)
	opts.Telemetry = hub
	t := time.Now()
	rep := shard.Fuzz(c.name, c.prog, opts)
	s.wallNS += int64(time.Since(t))
	snap := hub.Snapshot()
	for _, m := range snap.Metrics {
		if m.Name == telemetry.MShardMergeNS && m.Hist != nil {
			s.mergeNS += m.Hist.Sum
		}
	}
	s.steals += snap.Total(telemetry.MShardSteals)
	s.utilP += snap.Total(telemetry.MShardUtilization)
	s.campaigns++
	return rep
}

func (s *shardTelemetry) metrics(o *outcome) {
	if s.campaigns == 0 {
		return
	}
	n := float64(s.campaigns)
	o.set("shard.merge_ms", "ms", float64(s.mergeNS)/n/1e6)
	o.set("shard.merge.share_pct", "%", 100*float64(s.mergeNS)/float64(s.wallNS))
	o.set("shard.utilization_pct", "%", float64(s.utilP)/n)
	o.set("shard.steals", "count", float64(s.steals)/n)
}
