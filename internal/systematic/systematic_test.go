package systematic_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"rff/internal/bench"
	"rff/internal/exec"
	"rff/internal/strategy"
	"rff/internal/systematic"
)

// tiny: two threads, two interleaving-relevant writes, one reachable bug.
func tiny(t *exec.Thread) {
	x := t.NewVar("x", 0)
	a := t.Go("a", func(w *exec.Thread) { w.Write(x, 1) })
	b := t.Go("b", func(w *exec.Thread) {
		if w.Read(x) == 1 {
			w.Assert(false, "b saw a's write")
		}
	})
	t.JoinAll(a, b)
}

// firstBug returns an OnExecution visitor that records the 1-based index
// and the failure of the first buggy execution it sees.
func firstBug(idx *int, f **exec.Failure) func(*exec.Result) {
	n := 0
	return func(res *exec.Result) {
		n++
		if res.Buggy() && *idx == 0 {
			*idx, *f = n, res.Failure
		}
	}
}

func TestExploreFindsBugAndCompletes(t *testing.T) {
	var bug int
	var fail *exec.Failure
	rep := systematic.Explore("tiny", tiny, systematic.ExploreOptions{
		MaxExecutions: 10000, OnExecution: firstBug(&bug, &fail),
	})
	if bug == 0 {
		t.Fatal("exhaustive exploration missed a reachable bug")
	}
	if !rep.Complete {
		t.Fatal("tiny program should be fully enumerable")
	}
	if rep.Classes < 2 {
		t.Fatalf("tiny program has at least 2 rf classes, got %d", rep.Classes)
	}
	if fail.Kind != exec.FailAssert {
		t.Fatalf("unexpected failure %v", fail)
	}
}

func TestExploreCountsRFClassesOnReorder(t *testing.T) {
	// Section 3's worked example: reorder has few reads-from classes
	// despite exponentially many interleavings. For a two-setter reorder,
	// the checker's two reads each observe either the initial write or a
	// setter write; class count must be far below schedule count.
	reorder2 := func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		b := t.NewVar("b", 0)
		s1 := t.Go("s1", func(w *exec.Thread) { w.Write(a, 1); w.Write(b, -1) })
		s2 := t.Go("s2", func(w *exec.Thread) { w.Write(a, 1); w.Write(b, -1) })
		ck := t.Go("ck", func(w *exec.Thread) {
			av, bv := w.Read(a), w.Read(b)
			w.Assert((av == 0 && bv == 0) || (av == 1 && bv == -1), "reorder")
		})
		t.JoinAll(s1, s2, ck)
	}
	var bug int
	var fail *exec.Failure
	rep := systematic.Explore("reorder_2", reorder2, systematic.ExploreOptions{
		MaxExecutions: 400000, OnExecution: firstBug(&bug, &fail),
	})
	if !rep.Complete {
		t.Skipf("enumeration not complete in budget (%d execs)", rep.Executions)
	}
	if bug == 0 {
		t.Fatal("exhaustive enumeration must find the reorder bug")
	}
	if rep.Classes >= rep.Executions/10 {
		t.Errorf("expected far fewer rf classes than schedules: %d classes / %d schedules",
			rep.Classes, rep.Executions)
	}
	t.Logf("reorder_2: %d schedules, %d rf classes, first bug at %d",
		rep.Executions, rep.Classes, bug)
}

func TestExploreRespectsBudget(t *testing.T) {
	p := bench.MustGet("CS/reorder_10")
	rep := systematic.Explore(p.Name, p.Body, systematic.ExploreOptions{MaxExecutions: 50})
	if rep.Executions > 50 {
		t.Fatalf("budget exceeded: %d", rep.Executions)
	}
	if rep.Complete {
		t.Fatal("reorder_10 cannot be enumerated in 50 schedules")
	}
}

// TestExploreCancelledIsIncomplete: a cancelled enumeration counts no
// partial execution and never reports the tree complete, however far
// the abandoned run got.
func TestExploreCancelledIsIncomplete(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := systematic.ExploreContext(ctx, "tiny", tiny, systematic.ExploreOptions{MaxExecutions: 10000})
	if rep.Complete || rep.Executions != 0 {
		t.Fatalf("cancelled exploration = %+v, want no executions and incomplete", rep)
	}
}

// TestGenMCTrialMatchesExplore: the GenMC* tool and Explore drive the
// same DFS scheduler, so a trial that finds no bug runs exactly the
// schedules Explore enumerates and stops when the tree is exhausted.
func TestGenMCTrialMatchesExplore(t *testing.T) {
	tool := strategy.MustResolve("genmc", strategy.Config{})
	p := bench.Program{Name: "tiny-clean", Body: func(t *exec.Thread) {
		x := t.NewVar("x", 0)
		a := t.Go("a", func(w *exec.Thread) { w.Write(x, 1) })
		b := t.Go("b", func(w *exec.Thread) { w.Read(x) })
		t.JoinAll(a, b)
	}}
	rep := systematic.Explore(p.Name, p.Body, systematic.ExploreOptions{MaxExecutions: 1000})
	if !rep.Complete {
		t.Fatal("tiny-clean should be fully enumerable")
	}
	out := tool.Run(context.Background(), p, 1000, 0, 7)
	if out.Found() || out.Errored() || out.Executions != rep.Executions {
		t.Fatalf("GenMC* trial = %+v, want %d clean executions", out, rep.Executions)
	}
}

// enumerate is the recursive reference for the ICB scheduler's odometer:
// it extends a preemption list by one switch in all ways, targets in
// reverse spawn order outermost, then steps ascending.
func enumerate(targets []int, baseLen int, prefix [][2]int, fromStep, depth int, visit func([][2]int)) {
	for _, tgt := range targets {
		for s := fromStep; s <= baseLen; s++ {
			ps := append(append([][2]int(nil), prefix...), [2]int{s, tgt})
			if depth == 1 {
				visit(ps)
			} else {
				enumerate(targets, baseLen, ps, s+1, depth-1, visit)
			}
		}
	}
}

func TestICBOdometerMatchesRecursion(t *testing.T) {
	shapes := []struct{ threads, baseLen int }{
		{0, 5}, {1, 0}, {1, 4}, {2, 1}, {3, 3}, {4, 7}, {10, 12},
	}
	for _, sh := range shapes {
		var targets []int
		for id := sh.threads; id >= 1; id-- {
			targets = append(targets, id)
		}
		for bound := 1; bound <= 3; bound++ {
			var want [][][2]int
			for b := 1; b <= bound; b++ {
				enumerate(targets, sh.baseLen, nil, 0, b, func(ps [][2]int) { want = append(want, ps) })
			}
			got := systematic.ICBLists(sh.threads, sh.baseLen, bound)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("threads=%d baseLen=%d bound=%d: odometer yields %d lists, recursion %d (first divergence %s)",
					sh.threads, sh.baseLen, bound, len(got), len(want), divergence(got, want))
			}
		}
	}
}

// divergence describes the first list where got departs from want.
func divergence(got, want [][][2]int) string {
	for i := range got {
		if i >= len(want) {
			return fmt.Sprintf("%v past the reference's end", got[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("%v vs %v", got[i], want[i])
		}
	}
	return "at the odometer's end"
}

func TestICBFindsShallowBugs(t *testing.T) {
	tool := strategy.MustResolve("period", strategy.Config{})
	for _, name := range []string{"CS/account", "CS/deadlock01", "CS/lazy01"} {
		p := bench.MustGet(name)
		out := tool.Run(context.Background(), p, 5000, 0, 0)
		if !out.Found() {
			t.Errorf("%s: ICB missed a shallow bug in %d schedules", name, out.Executions)
			continue
		}
		t.Logf("%s: ICB bug at %d", name, out.FirstBug)
	}
}

func TestICBReorderLinearInThreads(t *testing.T) {
	// The reorder bug is one preemption deep; with reverse-spawn-order
	// targets ICB must find it in O(threads) schedules, mirroring
	// PERIOD's near-linear column in the paper's table.
	p := bench.MustGet("CS/reorder_10")
	out := strategy.MustResolve("period", strategy.Config{}).Run(context.Background(), p, 20000, 0, 0)
	if !out.Found() {
		t.Fatal("ICB missed reorder_10")
	}
	if out.FirstBug > 500 {
		t.Errorf("ICB needed %d schedules on reorder_10; expected O(threads)", out.FirstBug)
	}
	t.Logf("reorder_10: ICB bug at %d", out.FirstBug)
}

func TestICBDeterminism(t *testing.T) {
	p := bench.MustGet("CS/account")
	tool := strategy.MustResolve("period", strategy.Config{})
	// The trial seed is ignored: different seeds give the same trial.
	r1 := tool.Run(context.Background(), p, 200, 0, 1)
	r2 := tool.Run(context.Background(), p, 200, 0, 2)
	if r1.FirstBug != r2.FirstBug || r1.Executions != r2.Executions {
		t.Fatalf("ICB not deterministic: %+v vs %+v", r1, r2)
	}
	if r1.Failure == nil || r1.Failure.Seed != 0 {
		t.Fatalf("ICB failure record %+v, want one at seed 0", r1.Failure)
	}
}
