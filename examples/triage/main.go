// Triage: the full bug-to-fix workflow on one program — fuzz the schedule
// space, detect the underlying data races with the happens-before
// analysis, shrink the failing schedule to its minimal context switches,
// and print the per-thread timeline a human debugs from.
//
// Run with:
//
//	go run ./examples/triage
package main

import (
	"fmt"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/minimize"
	"rff/internal/race"
	"rff/internal/report"
	"rff/internal/sched"
)

// barrierBug: a worker pre-stages the next phase's input because its
// phase guard reads a stale counter — an assert fires on the wrong
// interleaving, and the guard read itself races with the counter update.
func barrierBug(t *exec.Thread) {
	bar := t.NewBarrier("phase", 2)
	input := t.NewVar("input", 1)
	phase := t.NewVar("phase_no", 0)
	fast := t.Go("fast", func(w *exec.Thread) {
		if w.Read(phase) == 0 {
			w.Write(input, 2) // pre-stage phase 1 too early
		}
		w.BarrierWait(bar)
	})
	slow := t.Go("slow", func(w *exec.Thread) {
		v := w.Read(input)
		w.Write(phase, 1)
		w.BarrierWait(bar)
		w.Assertf(v == 1, "phase-0 read saw phase-1 input: %d", v)
	})
	t.JoinAll(fast, slow)
}

func main() {
	// 1. Fuzz, with the race detector piggybacking on every execution.
	raceKeys := map[string]struct{}{}
	rep := core.NewFuzzer("barrierBug", barrierBug, core.Options{
		Budget: 2000, Seed: 3, StopAtFirstBug: true,
		ResultObserver: func(res *exec.Result) {
			for _, k := range race.DistinctKeys(race.Detect(res.Trace)) {
				raceKeys[k] = struct{}{}
			}
		},
	}).Run()
	if !rep.FoundBug() {
		fmt.Println("no bug found — unexpected!")
		return
	}
	f := rep.Failures[0]
	fmt.Printf("bug at schedule %d: %v\n\n", rep.FirstBug, f.Failure)

	// 2. The data races behind the failure.
	fmt.Printf("distinct data races observed while fuzzing: %d\n", len(raceKeys))
	for k := range raceKeys {
		fmt.Printf("  %s\n", k)
	}

	// 3. Shrink the reproduction.
	min := minimize.Minimize("barrierBug", barrierBug, f.Decisions, f.Failure, minimize.Options{})
	fmt.Printf("\nminimized: %d -> %d switches (%d preemptions, %d probes)\n",
		min.OriginalSwitches, min.MinimalSwitches, min.Preemptions, min.Probes)

	// 4. The timeline a human reads.
	res := exec.Run("barrierBug", barrierBug, exec.Config{Scheduler: sched.NewReplay(min.Decisions)})
	fmt.Println("\nminimal failing timeline:")
	fmt.Print(report.Timeline(res.Trace))
}
