package exec_test

import (
	"strings"
	"testing"

	"rff/internal/exec"
	"rff/internal/sched"
)

func TestCondWakeupIsFIFO(t *testing.T) {
	// Two waiters, one signal: the longest-waiting thread wakes first.
	prog := func(t *exec.Thread) {
		m := t.NewMutex("m")
		cv := t.NewCond("cv", m)
		woken := t.NewVar("woken", 0)
		waiter := func(id int64) exec.Program {
			return func(w *exec.Thread) {
				w.Lock(m)
				w.Wait(cv)
				if w.Read(woken) == 0 {
					w.Write(woken, id)
				}
				w.Unlock(m)
			}
		}
		w1 := t.Go("w1", waiter(1))
		// Ensure w1 waits first under round-robin (spawn order = run order).
		w2 := t.Go("w2", waiter(2))
		sig := t.Go("sig", func(w *exec.Thread) {
			w.Lock(m)
			w.Signal(cv)
			w.Signal(cv)
			w.Unlock(m)
		})
		t.JoinAll(w1, w2, sig)
		t.Assert(t.Read(woken) == 1, "FIFO wakeup")
	}
	res := exec.Run("fifo", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("FIFO violated: %v\n%s", res.Failure, res.Trace)
	}
}

func TestWaitWithoutMutexIsCrash(t *testing.T) {
	res := exec.Run("misuse", func(t *exec.Thread) {
		m := t.NewMutex("m")
		cv := t.NewCond("cv", m)
		t.Wait(cv) // without holding m
	}, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailPanic {
		t.Fatalf("want misuse crash, got %v", res.Failure)
	}
}

func TestExplicitLocationAPIs(t *testing.T) {
	res := exec.Run("loc", func(t *exec.Thread) {
		v := t.NewVar("v", 0)
		t.WriteAt(exec.SiteAt("store@custom"), v, 1)
		if t.ReadAt(exec.SiteAt("load@custom"), v) != 1 {
			t.Fail(exec.FailAssert, "bad read")
		}
	}, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("%v", res.Failure)
	}
	var sawStore, sawLoad bool
	for _, e := range res.Trace.Events {
		if e.Loc == "store@custom" && e.Op == exec.OpWrite {
			sawStore = true
		}
		if e.Loc == "load@custom" && e.Op == exec.OpRead {
			sawLoad = true
		}
	}
	if !sawStore || !sawLoad {
		t.Fatalf("explicit locations missing:\n%s", res.Trace)
	}
}

// TestZeroSiteRejected checks that an event at the zero Site, which would
// stamp the "no event" location key 0, crashes the execution with a
// message naming the misuse instead of recording the event.
func TestZeroSiteRejected(t *testing.T) {
	res := exec.Run("zero-site", func(t *exec.Thread) {
		v := t.NewVar("v", 0)
		t.WriteAt(exec.Site{}, v, 1)
	}, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailPanic || !strings.Contains(res.Failure.Msg, "zero Site") {
		t.Fatalf("want a crash naming the zero Site, got %v", res.Failure)
	}
	for _, e := range res.Trace.Events {
		if e.Op == exec.OpWrite {
			t.Fatalf("the write at the zero Site was recorded: %v", e)
		}
	}
}

func TestNewVarsNaming(t *testing.T) {
	res := exec.Run("arr", func(t *exec.Thread) {
		vs := t.NewVars("buf", 3, 7)
		if len(vs) != 3 {
			t.Fail(exec.FailAssert, "len")
		}
		for i, v := range vs {
			want := "buf[" + string(rune('0'+i)) + "]"
			if v.Name() != want {
				t.Fail(exec.FailAssert, "name "+v.Name())
			}
			if t.Read(v) != 7 {
				t.Fail(exec.FailAssert, "init")
			}
		}
	}, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("%v", res.Failure)
	}
}

func TestDuplicateVarNameIsCrash(t *testing.T) {
	res := exec.Run("dup", func(t *exec.Thread) {
		t.NewVar("x", 0)
		t.NewVar("x", 1)
	}, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailPanic {
		t.Fatalf("want duplicate-name crash, got %v", res.Failure)
	}
	if !strings.Contains(res.Failure.Msg, "duplicate") {
		t.Fatalf("unhelpful message %q", res.Failure.Msg)
	}
}

func TestThreadIdentity(t *testing.T) {
	res := exec.Run("ids", func(t *exec.Thread) {
		if t.ID() != 1 || t.Name() != "main" {
			t.Fail(exec.FailAssert, "main identity")
		}
		c := t.Go("child", func(w *exec.Thread) {
			if w.ID() != 2 || w.Name() != "child" {
				w.Fail(exec.FailAssert, "child identity")
			}
		})
		t.Join(c)
		if c.ID() != 2 {
			t.Fail(exec.FailAssert, "handle id")
		}
	}, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("%v", res.Failure)
	}
}

func TestLockRFPairs(t *testing.T) {
	// Lock acquisitions appear in the reads-from relation: the second
	// lock reads-from the first unlock.
	prog := func(t *exec.Thread) {
		m := t.NewMutex("m")
		t.Lock(m)
		t.Unlock(m)
		t.Lock(m)
		t.Unlock(m)
	}
	res := exec.Run("locks", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	var lockReads int
	for _, p := range res.Trace.RFPairs() {
		if p.Read.Op == exec.OpLock {
			lockReads++
			if p.Read.Var != "m" {
				t.Fatalf("lock pair on wrong var: %v", p)
			}
		}
	}
	if lockReads < 2 {
		t.Fatalf("expected lock rf pairs, got %v", res.Trace.RFPairs())
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFailureErrorFormatting(t *testing.T) {
	f := &exec.Failure{Kind: exec.FailAssert, Msg: "boom", Thread: 2, Loc: "x.go:3"}
	if got := f.Error(); !strings.Contains(got, "assertion violation") ||
		!strings.Contains(got, "x.go:3") || !strings.Contains(got, "boom") {
		t.Fatalf("bad error %q", got)
	}
	f2 := &exec.Failure{Kind: exec.FailDeadlock, Msg: "stuck"}
	if got := f2.Error(); !strings.Contains(got, "deadlock") {
		t.Fatalf("bad error %q", got)
	}
}

func TestOpStringAndPredicates(t *testing.T) {
	if exec.OpRead.String() != "r" || exec.OpWrite.String() != "w" {
		t.Fatal("op mnemonics")
	}
	if !exec.OpVarInit.IsWrite() || !exec.OpVarInit.ActsAsWrite() {
		t.Fatal("init must act as write")
	}
	if !exec.OpLock.ReadsFrom() || !exec.OpLock.ActsAsWrite() {
		t.Fatal("lock must read-from and act as write")
	}
	if exec.OpSignal.ReadsFrom() || exec.OpSignal.ActsAsWrite() {
		t.Fatal("signal is a pure sync marker")
	}
}
