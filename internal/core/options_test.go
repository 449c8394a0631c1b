package core_test

import (
	"math/rand"
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
)

func TestInitialCorpusSeedsAlgorithm(t *testing.T) {
	// Seed the corpus with the known violating schedule: the fuzzer's
	// very first mutations start in the right neighborhood and find the
	// bug essentially immediately.
	probe := exec.Run("probe", reorder(10), exec.Config{Scheduler: sched.NewPOS(), Seed: 1})
	var setterA, readerA exec.AbstractEvent
	var initB, readerB exec.AbstractEvent
	for _, e := range probe.Trace.Events {
		switch {
		case e.Op == exec.OpWrite && e.VarStr == "a":
			setterA = e.Abstract()
		case e.Op == exec.OpVarInit && e.VarStr == "b":
			initB = e.Abstract()
		case e.Op == exec.OpRead && e.VarStr == "a":
			readerA = e.Abstract()
		case e.Op == exec.OpRead && e.VarStr == "b":
			readerB = e.Abstract()
		}
	}
	violation := core.NewSchedule(
		core.Constraint{Write: setterA, Read: readerA},
		core.Constraint{Write: initB, Read: readerB},
	)
	rep := core.NewFuzzer("reorder_10", reorder(10), core.Options{
		Budget: 50, Seed: 2, StopAtFirstBug: true,
		InitialCorpus: []core.Schedule{violation},
	}).Run()
	if !rep.FoundBug() || rep.FirstBug > 10 {
		t.Fatalf("seeded corpus should crack reorder_10 immediately, got %d", rep.FirstBug)
	}
}

func TestMutatorDisabledOps(t *testing.T) {
	pool := core.NewEventPool()
	res := exec.Run("probe", reorder(2), exec.Config{Scheduler: sched.NewPOS(), Seed: 3})
	pool.AddTrace(res.Trace)
	rng := rand.New(rand.NewSource(9))

	// Disable everything but insert: schedules only ever grow (up to the
	// cap) and no constraint is ever negated.
	cfg := core.MutatorConfig{
		Disabled: []core.MutationOp{core.MutSwap, core.MutDelete, core.MutNegate},
	}
	s := core.EmptySchedule()
	for i := 0; i < 200; i++ {
		next := core.Mutate(s, pool, rng, cfg)
		if next.Len() < s.Len() {
			t.Fatalf("delete happened with delete disabled: %d -> %d", s.Len(), next.Len())
		}
		s = next
	}
	if s.Len() == 0 {
		t.Fatal("insert-only mutation never grew the schedule")
	}
}

func TestResultObserverSeesEveryExecution(t *testing.T) {
	var traces, events int
	rep := core.NewFuzzer("wr", writerReader, core.Options{
		Budget: 25, Seed: 3,
		ResultObserver: func(res *exec.Result) {
			traces++
			events += res.Trace.Len()
		},
	}).Run()
	if traces != rep.Executions {
		t.Fatalf("observer saw %d traces, fuzzer ran %d", traces, rep.Executions)
	}
	if events == 0 {
		t.Fatal("observer saw empty traces")
	}
}
