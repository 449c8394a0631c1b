package sched_test

import (
	"reflect"
	"testing"

	"rff/internal/exec"
	"rff/internal/sched"
)

// twoWriters: two threads race a write each; checker reads.
func twoWriters(t *exec.Thread) {
	x := t.NewVar("x", 0)
	a := t.Go("a", func(w *exec.Thread) { w.Write(x, 1) })
	b := t.Go("b", func(w *exec.Thread) { w.Write(x, 2) })
	t.JoinAll(a, b)
	t.Read(x)
}

func TestPOSDeterministicPerSeed(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r1 := exec.Run("p", twoWriters, exec.Config{Scheduler: sched.NewPOS(), Seed: seed})
		r2 := exec.Run("p", twoWriters, exec.Config{Scheduler: sched.NewPOS(), Seed: seed})
		if !reflect.DeepEqual(r1.Trace.Events, r2.Trace.Events) {
			t.Fatalf("seed %d: POS not deterministic", seed)
		}
	}
}

func TestPOSExploresBothOrders(t *testing.T) {
	// Over many seeds POS must produce both final values of x.
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		res := exec.Run("p", twoWriters, exec.Config{Scheduler: sched.NewPOS(), Seed: seed})
		last := res.Trace.Event(res.Trace.Len())
		seen[last.Val] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("POS failed to explore both write orders: %v", seen)
	}
}

func TestPCTDepthOneIsStrictPriority(t *testing.T) {
	// With depth 1 there are no change points: thread priorities are
	// fixed, so the same seed always yields the same trace and different
	// seeds reorder threads.
	outcomes := map[int64]bool{}
	for seed := int64(0); seed < 40; seed++ {
		s := sched.NewPCT(1)
		res := exec.Run("p", twoWriters, exec.Config{Scheduler: s, Seed: seed})
		last := res.Trace.Event(res.Trace.Len())
		outcomes[last.Val] = true
	}
	if !outcomes[1] || !outcomes[2] {
		t.Fatalf("PCT priorities never flipped across seeds: %v", outcomes)
	}
}

func TestPCTAdaptsLengthEstimate(t *testing.T) {
	s := sched.NewPCT(3)
	long := func(t *exec.Thread) {
		x := t.NewVar("x", 0)
		for i := 0; i < 200; i++ {
			t.Write(x, int64(i))
		}
	}
	res := exec.Run("p", long, exec.Config{Scheduler: s, Seed: 1})
	if res.Trace.Len() < 200 {
		t.Fatalf("short trace: %d", res.Trace.Len())
	}
	// A second Begin must not panic and must still schedule fine with the
	// larger estimate.
	res = exec.Run("p", long, exec.Config{Scheduler: s, Seed: 2})
	if res.Buggy() {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
}

func TestReplayFallsBackGracefully(t *testing.T) {
	// A bogus decision list (threads that are never enabled) must not
	// wedge the run.
	order := []exec.ThreadID{99, 99, 99}
	res := exec.Run("p", twoWriters, exec.Config{Scheduler: sched.NewReplay(order)})
	if res.Buggy() || res.Truncated {
		t.Fatalf("replay fallback broke the run: %+v", res)
	}
}

func TestRoundRobinPrefersLowestThread(t *testing.T) {
	res := exec.Run("p", twoWriters, exec.Config{Scheduler: sched.NewRoundRobin()})
	// Main (t1) runs to its join; then a (t2) fully; then b (t3): final
	// value of x must be 2, written by b.
	last := res.Trace.Event(res.Trace.Len())
	if last.Val != 2 {
		t.Fatalf("unexpected final read %d", last.Val)
	}
}

func TestRandomDiffersAcrossSeeds(t *testing.T) {
	diff := false
	base := exec.Run("p", twoWriters, exec.Config{Scheduler: sched.NewRandom(), Seed: 0})
	for seed := int64(1); seed < 20 && !diff; seed++ {
		res := exec.Run("p", twoWriters, exec.Config{Scheduler: sched.NewRandom(), Seed: seed})
		if !reflect.DeepEqual(base.Trace.Events, res.Trace.Events) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("20 seeds produced identical schedules")
	}
}

// failsEarly ends on an assertion while writer threads may still hold
// scored pending events.
func failsEarly(t *exec.Thread) {
	x := t.NewVar("x", 0)
	for _, name := range []string{"a", "b", "c"} {
		t.Go(name, func(w *exec.Thread) {
			w.Write(x, 1)
			w.Write(x, 0)
		})
	}
	t.Assert(t.Read(x) == 0, "read a pending write")
}

// TestReusedSchedulerMatchesFresh: Begin reseeds a retained generator
// rather than allocating a new one, so a scheduler reused across
// executions must replay exactly what a fresh one does at each seed,
// including after runs that ended with events still pending.
func TestReusedSchedulerMatchesFresh(t *testing.T) {
	for _, mk := range []func() exec.Scheduler{
		func() exec.Scheduler { return sched.NewPOS() },
		func() exec.Scheduler { return sched.NewRandom() },
	} {
		reused := mk()
		for i, seed := range []int64{5, 0, 17, 5, 3, 42, 0, 8, 9, 10, 11, 12} {
			prog := twoWriters
			if i%2 == 1 {
				prog = failsEarly
			}
			got := exec.Run("p", prog, exec.Config{Scheduler: reused, Seed: seed})
			want := exec.Run("p", prog, exec.Config{Scheduler: mk(), Seed: seed})
			if !reflect.DeepEqual(got.Trace.Decisions, want.Trace.Decisions) {
				t.Fatalf("%s seed %d: reused scheduler picked %v, fresh picked %v",
					reused.Name(), seed, got.Trace.Decisions, want.Trace.Decisions)
			}
		}
	}
}
