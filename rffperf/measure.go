package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is the resource use of one timed region.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // process user + system CPU
	mallocs uint64
	bytes   uint64
}

// meter measures a timed region made of segments: wall clock, process
// CPU, and the heap allocation deltas of runtime.MemStats, summed over
// the segments.
type meter struct {
	total usage
	open  bool // a segment is being timed
	t0    time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
	skip  usage // wall and CPU excluded from the open segment
}

// start opens a segment.
func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	m.open = true
	m.skip = usage{}
}

// exclude runs f inside the open segment without counting its wall or
// CPU time. f must not allocate.
func (m *meter) exclude(f func()) {
	t, c := time.Now(), cpuTime()
	f()
	m.skip.wall += time.Since(t)
	m.skip.cpu += cpuTime() - c
}

// stop closes the open segment and adds it to the total.
func (m *meter) stop() {
	m.open = false
	m.total.wall += time.Since(m.t0) - m.skip.wall
	m.total.cpu += cpuTime() - m.cpu0 - m.skip.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.total.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.total.bytes += ms.TotalAlloc - m.ms0.TotalAlloc
}

// elapsed is the timed wall so far, the open segment included.
func (m *meter) elapsed() time.Duration {
	if !m.open {
		return m.total.wall
	}
	return m.total.wall + time.Since(m.t0) - m.skip.wall
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSamples reads the Go runtime's memory: everything it has mapped,
// and the part of that it has released back to the OS.
var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// residentMB is the memory the Go runtime holds resident (mapped and not
// released), in MB. The process's own peak RSS (getrusage) moves by 2x
// between identical runs with the GC cycle timing, so the benchmark
// samples this instead.
func residentMB() float64 {
	metrics.Read(memSamples)
	return float64(memSamples[0].Value.Uint64()-memSamples[1].Value.Uint64()) / (1 << 20)
}

// loopStats is the timed region of a workload: a fixed set of trials
// run in order, round after round.
type loopStats struct {
	usage   usage
	execs   int       // counted executions over all rounds
	trials  int       // trials run over all rounds
	rounds  int       // rounds started (the last may be partial)
	trialMS []float64 // wall time of every trial run
	peakMB  []float64 // per round, the highest residentMB after a trial
	ref     *refClock // the reference kernel, sampled between trials
	setupS  []float64 // wall time of every timed set-up, in seconds
}

// setupPerRound is how many times a workload's set-up calls are timed
// before each round, with the clock stopped; setup_s is the median over
// the run. Spreading the samples over the run keeps setup_s from
// following the host's state in the process's first milliseconds, where
// a median of 201 back-to-back samples moved by up to 2x between runs.
const setupPerRound = 20

// minTrials is the fewest trials a run pools: enough for ten to lie
// beyond trial_ms_p90. To reach it a run may go on to maxOvershoot
// times its --seconds, and no further.
const (
	minTrials    = 100
	maxOvershoot = 1.5
)

// repeatSet runs rounds of n trials, runTrial(r, i) running trial i of
// round r and returning its counted executions, until seconds of timed
// wall have elapsed, at least one whole round has run, and minTrials
// trials have run (or maxOvershoot times seconds have elapsed). Each
// round draws fresh inputs from the workload seed, so the inputs a run
// sees are a fixed sequence of which a faster program simply gets
// further. endRound(r) runs after each round with the clock stopped:
// workloads check and summarize the round there and drop what they kept
// of it, so nothing the benchmark retains grows with the run. Before
// each round, with the clock stopped, the workload's set-up calls are
// timed setupPerRound times. Between trials, once per refEvery of timed
// wall, the reference kernel takes a sample on refThreads groups at
// once, outside the timed region.
func repeatSet(n int, seconds float64, refThreads int, setup func(), runTrial func(r, i int) int, endRound func(r int)) loopStats {
	ls := loopStats{ref: newRefClock(refThreads)}
	defer ls.ref.close()
	var m meter
	var lastRef time.Duration
	deadline := time.Duration(seconds * float64(time.Second))
	more := func() bool {
		t := m.elapsed()
		return t < deadline || (ls.trials < minTrials && t < time.Duration(maxOvershoot*float64(deadline)))
	}
	for r := 0; r == 0 || more(); r++ {
		ls.rounds++
		ls.peakMB = append(ls.peakMB, 0)
		for range setupPerRound {
			t := time.Now()
			setup()
			ls.setupS = append(ls.setupS, time.Since(t).Seconds())
		}
		m.start()
		for i := 0; i < n && (r == 0 || more()); i++ {
			t := time.Now()
			ls.execs += runTrial(r, i)
			ls.trialMS = append(ls.trialMS, float64(time.Since(t).Nanoseconds())/1e6)
			ls.trials++
			ls.peakMB[r] = max(ls.peakMB[r], residentMB())
			if t := m.elapsed(); t-lastRef >= refEvery || len(ls.ref.perOp) == 0 {
				m.exclude(ls.ref.sample)
				lastRef = t
			}
		}
		m.stop()
		endRound(r)
	}
	ls.usage = m.total
	return ls
}

// quantile is the linearly interpolated q-quantile of xs (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// interpMedian is the median of integer counts, interpolated within the
// unit-wide class of the middle value: L - 1/2 + (n/2 - below)/ties,
// where L is the middle value, below the number of samples under it and
// ties the number equal to it. It equals the ordinary median when the
// middle values are distinct, and moves smoothly instead of jumping a
// whole schedule when heavily tied counts shift by a few samples.
func interpMedian(xs []int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	mid := s[len(s)/2]
	below, ties := 0, 0
	for _, x := range s {
		switch {
		case x < mid:
			below++
		case x == mid:
			ties++
		}
	}
	return float64(mid) - 0.5 + (float64(len(s))/2-float64(below))/float64(ties)
}

// bugStats gathers the search-quality counts of a workload's trials:
// trials, trials that found a bug, schedules-to-bug samples, and the
// reads-from pairs covered, summed over pairTrials trials.
type bugStats struct {
	trials     int
	found      int
	toBug      []int
	pairs      int
	pairTrials int
}

// addPairs records one trial's unique reads-from pairs.
func (b *bugStats) addPairs(n int) {
	b.pairs += n
	b.pairTrials++
}

// addFailures adds the schedules-to-bug samples of one trial from the
// 1-based execution indices of its failing schedules, in order: the
// schedules from the trial's start, or from its previous failing
// schedule, up to and including each failing one. A trial that stops at
// its first bug contributes the paper's schedules-to-first-bug.
func (b *bugStats) addFailures(executions []int) {
	b.trials++
	if len(executions) > 0 {
		b.found++
	}
	prev := 0
	for _, e := range executions {
		b.toBug = append(b.toBug, e-prev)
		prev = e
	}
}

// endToEnd sets every end-to-end metric from the timed loop, the set-up
// time and the search counts. The wall and CPU timings of the loop are
// reported scaled to the reference host (calib.go); the host line keeps
// them as measured.
func endToEnd(o *outcome, ls loopStats, bs bugStats) {
	execs := float64(ls.execs)
	k := ls.ref.scale()
	rate := execs / ls.usage.wall.Seconds()
	cpuUS := float64(ls.usage.cpu.Microseconds()) / execs
	ms := append([]float64(nil), ls.trialMS...)
	p50, p90 := quantile(ms, 0.5), quantile(ms, 0.9)
	o.set("norm_execs_per_sec", "exec/s", rate*k)
	o.set("norm_cpu_us_per_exec", "us", cpuUS/k)
	o.set("norm_trial_ms_p50", "ms", p50/k)
	o.set("norm_trial_ms_p90", "ms", p90/k)
	o.set("allocs_per_exec", "count", float64(ls.usage.mallocs)/execs)
	o.set("bytes_per_exec", "B", float64(ls.usage.bytes)/execs)
	o.set("max_rss_mb", "MB", quantile(ls.peakMB, 0.5))
	o.set("setup_s", "s", quantile(ls.setupS, 0.5))
	o.set("schedules_to_bug_p50", "count", interpMedian(bs.toBug))
	o.set("bugs_found_frac", "fraction", float64(bs.found)/float64(bs.trials))
	o.set("rf_pairs", "count", float64(bs.pairs)/float64(bs.pairTrials))
	o.notes["rounds"] = ls.rounds
	o.notes["trial_samples"] = len(ls.trialMS)
	o.notes["trial_samples_beyond_p90"] = len(ls.trialMS) - int(math.Ceil(0.9*float64(len(ls.trialMS))))
	o.notes["schedules_to_bug_samples"] = len(bs.toBug)
	o.notes["timed_execs"] = ls.execs
	o.notes["timed_wall_s"] = ls.usage.wall.Seconds()
	o.notes["execs_per_sec"] = rate
	o.notes["cpu_us_per_exec"] = cpuUS
	o.notes["trial_ms_p50"] = p50
	o.notes["trial_ms_p90"] = p90
	o.notes["ref_ns_per_handoff"] = ls.ref.nsPerHandoff()
	o.notes["ref_samples"] = len(ls.ref.perOp)
	o.notes["setup_samples"] = len(ls.setupS)
}

// digest is a short hash of v's JSON form. Runs of two commits at one
// seed whose first rounds have equal digests searched identically.
func digest(v any) string {
	h := sha256.Sum256([]byte(mustJSON(v)))
	return hex.EncodeToString(h[:8])
}
