package minimize_test

import (
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/minimize"
	"rff/internal/sched"
)

// findFailure fuzzes until the program's bug fires and returns the record.
func findFailure(t *testing.T, name string) (bench.Program, core.FailureRecord) {
	t.Helper()
	p := bench.MustGet(name)
	rep := core.NewFuzzer(p.Name, p.Body, core.Options{
		Budget: 3000, Seed: 13, StopAtFirstBug: true,
	}).Run()
	if !rep.FoundBug() {
		t.Fatalf("no failure to minimize on %s", name)
	}
	return p, rep.Failures[0]
}

func TestMinimizeReorder(t *testing.T) {
	p, fr := findFailure(t, "CS/reorder_10")
	res := minimize.Minimize(p.Name, p.Body, fr.Decisions, fr.Failure, minimize.Options{})
	if res == nil {
		t.Fatal("original schedule failed to reproduce")
	}
	if res.Failure.Kind != exec.FailAssert {
		t.Fatalf("minimized failure changed kind: %v", res.Failure)
	}
	if res.MinimalSwitches > res.OriginalSwitches {
		t.Fatalf("minimization grew the switch count: %d -> %d",
			res.OriginalSwitches, res.MinimalSwitches)
	}
	// The reorder bug is a depth-2 bug: the checker preempts one setter
	// between its two writes. Everything beyond a few preemptions is
	// exits/blocking, which no schedule avoids.
	if res.Preemptions > 4 {
		t.Errorf("expected <=4 preemptions for reorder, got %d", res.Preemptions)
	}
	if res.MinimalSwitches > res.OriginalSwitches/2+2 {
		t.Errorf("weak reduction: %d -> %d", res.OriginalSwitches, res.MinimalSwitches)
	}
	// The minimized decision sequence replays to the same failure.
	rr := exec.Run(p.Name, p.Body, exec.Config{Scheduler: sched.NewReplay(res.Decisions)})
	if rr.Failure == nil || rr.Failure.Kind != exec.FailAssert {
		t.Fatalf("minimized decisions do not replay: %v", rr.Failure)
	}
	t.Logf("switches %d -> %d in %d probes", res.OriginalSwitches, res.MinimalSwitches, res.Probes)
}

func TestMinimizeDeadlock(t *testing.T) {
	p, fr := findFailure(t, "CS/deadlock01")
	res := minimize.Minimize(p.Name, p.Body, fr.Decisions, fr.Failure, minimize.Options{})
	if res == nil {
		t.Fatal("original schedule failed to reproduce")
	}
	if res.Failure.Kind != exec.FailDeadlock {
		t.Fatalf("wrong kind: %v", res.Failure)
	}
	if res.MinimalSwitches > 4 {
		t.Errorf("ABBA deadlock should need <=4 switches, got %d", res.MinimalSwitches)
	}
}

func TestMinimizeMemoryBug(t *testing.T) {
	p, fr := findFailure(t, "ConVul-CVE-Benchmarks/CVE-2016-1973")
	res := minimize.Minimize(p.Name, p.Body, fr.Decisions, fr.Failure, minimize.Options{MatchLoc: true})
	if res == nil {
		t.Fatal("original schedule failed to reproduce")
	}
	if res.Failure.Kind != exec.FailMemory || res.Failure.Loc != fr.Failure.Loc {
		t.Fatalf("MatchLoc violated: %v vs %v", res.Failure, fr.Failure)
	}
}

func TestMinimizeRespectsProbeBudget(t *testing.T) {
	p, fr := findFailure(t, "CS/reorder_10")
	res := minimize.Minimize(p.Name, p.Body, fr.Decisions, fr.Failure, minimize.Options{Budget: 5})
	if res == nil {
		t.Fatal("even the identity probe should reproduce")
	}
	if res.Probes > 5 {
		t.Fatalf("probe budget exceeded: %d", res.Probes)
	}
}

func TestMinimizeZeroBudgetReturnsOriginal(t *testing.T) {
	p, fr := findFailure(t, "CS/reorder_10")
	// A negative Budget allows no probes at all: the budget is exhausted
	// before any reduction, so the original switch set comes back
	// unminimized — never nil, which would read as "artifact broken".
	res := minimize.Minimize(p.Name, p.Body, fr.Decisions, fr.Failure, minimize.Options{Budget: -1})
	if res == nil {
		t.Fatal("exhausted budget must return the original switch set, not nil")
	}
	if res.Probes != 0 {
		t.Fatalf("negative budget ran %d probes", res.Probes)
	}
	if res.MinimalSwitches != res.OriginalSwitches {
		t.Fatalf("no probes were allowed, yet switches changed: %d -> %d",
			res.OriginalSwitches, res.MinimalSwitches)
	}
	if len(res.Decisions) != len(fr.Decisions) {
		t.Fatalf("decisions changed length: %d -> %d", len(fr.Decisions), len(res.Decisions))
	}
	if res.Failure != fr.Failure {
		t.Fatalf("failure should be the original: %v", res.Failure)
	}
	// The returned switch set still replays to the original failure kind.
	if f := minimize.Replay(p.Name, p.Body, res.Switches, 0); f == nil || f.Kind != fr.Failure.Kind {
		t.Fatalf("unminimized switch set does not replay: %v", f)
	}
}

func TestMinimizeBudgetFieldBounds(t *testing.T) {
	p, fr := findFailure(t, "CS/reorder_10")
	// A zero Budget falls back to the 2000 default.
	res := minimize.Minimize(p.Name, p.Body, fr.Decisions, fr.Failure, minimize.Options{})
	if res == nil || res.MinimalSwitches > res.OriginalSwitches {
		t.Fatalf("default-budget minimization misbehaved: %+v", res)
	}
}

func TestMinimizeInconsistentInputReturnsNil(t *testing.T) {
	p := bench.MustGet("CS/account")
	// A round-robin decision sequence does not fail this program.
	clean := exec.Run(p.Name, p.Body, exec.Config{Scheduler: sched.NewRoundRobin()})
	if clean.Failure != nil {
		t.Skip("round-robin unexpectedly fails account")
	}
	ghost := &exec.Failure{Kind: exec.FailAssert}
	if res := minimize.Minimize(p.Name, p.Body, clean.Trace.ThreadOrder(), ghost, minimize.Options{}); res != nil {
		t.Fatal("non-reproducing input must return nil")
	}
}
