package exec_test

import (
	"fmt"
	"testing"

	"rff/internal/bench"
	"rff/internal/exec"
	"rff/internal/sched"
)

// TestEnabledSetMatchesScan runs every digest subject (all bench programs
// and generated programs of every grammar) under seeded POS with the
// engine checking, before every decision, that its incrementally kept
// enabled set equals the set recomputed by scanning every thread.
func TestEnabledSetMatchesScan(t *testing.T) {
	exec.CheckEnabledSet(true)
	defer exec.CheckEnabledSet(false)
	for _, p := range digestPrograms() {
		for _, seed := range digestSeeds {
			if err := runChecked(p, seed); err != nil {
				t.Errorf("%s seed %d: %v", p.Name, seed, err)
			}
		}
	}
}

func runChecked(p bench.Program, seed int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	exec.Run(p.Name, p.Body, exec.Config{Scheduler: sched.NewPOS(), Seed: seed, MaxSteps: digestMaxSteps})
	return nil
}

// TestReorder100RunAllocs guards the allocations of a warm, recycled run of
// a 101-thread program: keeping the enabled set (waiter lists, ready
// flags, the recycled set array) must allocate nothing per execution.
func TestReorder100RunAllocs(t *testing.T) {
	// 215 is what one such run allocated when the engine still rebuilt
	// the set by scanning every thread at every step.
	const bound = 215
	p := bench.MustGet("CS/reorder_100")
	rec := exec.NewRecycler()
	cfg := exec.Config{Scheduler: sched.NewPOS(), Seed: 1, MaxSteps: digestMaxSteps, Recycle: rec}
	run := func() { rec.Reclaim(exec.Run(p.Name, p.Body, cfg).Trace) }
	run()
	if got := testing.AllocsPerRun(20, run); got > bound {
		t.Errorf("warm recycled run of %s allocated %.0f objects, want at most %d", p.Name, got, bound)
	}
}
