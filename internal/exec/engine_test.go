package exec_test

import (
	"fmt"
	"reflect"
	"testing"

	"rff/internal/exec"
	"rff/internal/sched"
)

// seqProgram: single thread, no concurrency — sanity of events and rf.
func seqProgram(t *exec.Thread) {
	a := t.NewVar("a", 0)
	t.Write(a, 7)
	v := t.Read(a)
	t.Assert(v == 7, "read-back")
}

func run(t *testing.T, p exec.Program, s exec.Scheduler, seed int64) *exec.Result {
	t.Helper()
	return exec.Run("test", p, exec.Config{Scheduler: s, Seed: seed})
}

func TestSequentialTraceAndRF(t *testing.T) {
	res := run(t, seqProgram, sched.NewRoundRobin(), 1)
	if res.Buggy() {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	tr := res.Trace
	if tr.Len() != 3 { // init, write, read
		t.Fatalf("want 3 events, got %d:\n%s", tr.Len(), tr)
	}
	rd := tr.Event(3)
	if !rd.Op.IsRead() || rd.Val != 7 || rd.RF != 2 {
		t.Fatalf("bad read event: %+v", rd)
	}
	pairs := tr.RFPairs()
	if len(pairs) != 1 {
		t.Fatalf("want 1 rf pair, got %v", pairs)
	}
	if pairs[0].Write.Op != exec.OpWrite || pairs[0].Read.Op != exec.OpRead {
		t.Fatalf("bad rf pair %v", pairs[0])
	}
}

func TestReadObservesInitialWrite(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		a := t.NewVar("a", 42)
		v := t.Read(a)
		t.Assert(v == 42, "init value")
	}, sched.NewRoundRobin(), 1)
	if res.Buggy() {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	rd := res.Trace.Event(2)
	if rd.RF != 1 || res.Trace.Event(rd.RF).Op != exec.OpVarInit {
		t.Fatalf("read should observe init write: %+v", rd)
	}
}

func TestAssertionFailureReported(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		t.Assert(false, "boom")
	}, sched.NewRoundRobin(), 1)
	if !res.Buggy() || res.Failure.Kind != exec.FailAssert {
		t.Fatalf("want assertion failure, got %v", res.Failure)
	}
	if res.Failure.Msg != "boom" {
		t.Fatalf("bad message %q", res.Failure.Msg)
	}
	last := res.Trace.Event(res.Trace.Len())
	if last.Op != exec.OpFail {
		t.Fatalf("trace should end with OpFail, got %v", last)
	}
}

func TestPanicBecomesCrash(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		var s []int
		_ = s[3] // index out of range
	}, sched.NewRoundRobin(), 1)
	if !res.Buggy() || res.Failure.Kind != exec.FailPanic {
		t.Fatalf("want panic failure, got %v", res.Failure)
	}
}

func TestSpawnJoinAndSharedCounter(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		c := t.NewVar("c", 0)
		m := t.NewMutex("m")
		worker := func(w *exec.Thread) {
			w.Lock(m)
			w.Add(c, 1)
			w.Unlock(m)
		}
		t1 := t.Go("w1", worker)
		t2 := t.Go("w2", worker)
		t.JoinAll(t1, t2)
		t.Assert(t.Read(c) == 2, "counter")
	}, sched.NewRandom(), 7)
	if res.Buggy() {
		t.Fatalf("locked counter must always reach 2: %v\n%s", res.Failure, res.Trace)
	}
}

func TestUnlockedCounterCanLoseUpdates(t *testing.T) {
	prog := func(t *exec.Thread) {
		c := t.NewVar("c", 0)
		worker := func(w *exec.Thread) { w.Add(c, 1) }
		t1 := t.Go("w1", worker)
		t2 := t.Go("w2", worker)
		t.JoinAll(t1, t2)
		t.Assert(t.Read(c) == 2, "lost update")
	}
	lost := false
	for seed := int64(0); seed < 200 && !lost; seed++ {
		res := run(t, prog, sched.NewRandom(), seed)
		if res.Buggy() {
			if res.Failure.Kind != exec.FailAssert {
				t.Fatalf("unexpected failure kind: %v", res.Failure)
			}
			lost = true
		}
	}
	if !lost {
		t.Fatal("random scheduling never exposed the lost update in 200 runs")
	}
}

func TestDeadlockDetection(t *testing.T) {
	prog := func(t *exec.Thread) {
		m1 := t.NewMutex("m1")
		m2 := t.NewMutex("m2")
		a := t.Go("a", func(w *exec.Thread) {
			w.Lock(m1)
			w.Yield()
			w.Lock(m2)
			w.Unlock(m2)
			w.Unlock(m1)
		})
		b := t.Go("b", func(w *exec.Thread) {
			w.Lock(m2)
			w.Yield()
			w.Lock(m1)
			w.Unlock(m1)
			w.Unlock(m2)
		})
		t.JoinAll(a, b)
	}
	found := false
	for seed := int64(0); seed < 200 && !found; seed++ {
		res := run(t, prog, sched.NewRandom(), seed)
		if res.Buggy() {
			if res.Failure.Kind != exec.FailDeadlock {
				t.Fatalf("unexpected failure: %v", res.Failure)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("ABBA deadlock never detected in 200 random runs")
	}
}

func TestCondWaitSignal(t *testing.T) {
	prog := func(t *exec.Thread) {
		m := t.NewMutex("m")
		cv := t.NewCond("cv", m)
		ready := t.NewVar("ready", 0)
		consumer := t.Go("consumer", func(w *exec.Thread) {
			w.Lock(m)
			for w.Read(ready) == 0 {
				w.Wait(cv)
			}
			w.Unlock(m)
		})
		producer := t.Go("producer", func(w *exec.Thread) {
			w.Lock(m)
			w.Write(ready, 1)
			w.Signal(cv)
			w.Unlock(m)
		})
		t.JoinAll(consumer, producer)
	}
	// The while-loop re-check makes this correct under every schedule.
	for seed := int64(0); seed < 100; seed++ {
		res := run(t, prog, sched.NewRandom(), seed)
		if res.Buggy() {
			t.Fatalf("seed %d: correct producer/consumer failed: %v\n%s", seed, res.Failure, res.Trace)
		}
	}
}

func TestLostSignalDeadlocks(t *testing.T) {
	// If the consumer checks the flag without holding the lock before
	// waiting, the signal can be lost and the consumer blocks forever.
	prog := func(t *exec.Thread) {
		m := t.NewMutex("m")
		cv := t.NewCond("cv", m)
		consumer := t.Go("consumer", func(w *exec.Thread) {
			w.Lock(m)
			w.Wait(cv) // unconditional wait: lost-signal bug
			w.Unlock(m)
		})
		producer := t.Go("producer", func(w *exec.Thread) {
			w.Lock(m)
			w.Signal(cv)
			w.Unlock(m)
		})
		t.JoinAll(consumer, producer)
	}
	found := false
	for seed := int64(0); seed < 200 && !found; seed++ {
		res := run(t, prog, sched.NewRandom(), seed)
		if res.Buggy() && res.Failure.Kind == exec.FailDeadlock {
			found = true
		}
	}
	if !found {
		t.Fatal("lost signal never produced a deadlock in 200 runs")
	}
}

func TestCASAtomicity(t *testing.T) {
	// A CAS-based lock implemented by the PUT must actually exclude.
	prog := func(t *exec.Thread) {
		lock := t.NewVar("lock", 0)
		c := t.NewVar("c", 0)
		worker := func(w *exec.Thread) {
			for {
				if _, ok := w.CAS(lock, 0, 1); ok {
					break
				}
				w.Yield()
			}
			w.Add(c, 1)
			w.Write(lock, 0)
		}
		t1 := t.Go("w1", worker)
		t2 := t.Go("w2", worker)
		t.JoinAll(t1, t2)
		t.Assert(t.Read(c) == 2, "CAS lock exclusion")
	}
	for seed := int64(0); seed < 100; seed++ {
		res := run(t, prog, sched.NewRandom(), seed)
		if res.Failure != nil {
			t.Fatalf("seed %d: CAS spinlock failed: %v\n%s", seed, res.Failure, res.Trace)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	prog := func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		b := t.NewVar("b", 0)
		w1 := t.Go("w1", func(w *exec.Thread) { w.Write(a, 1); w.Write(b, -1) })
		ck := t.Go("ck", func(w *exec.Thread) {
			av, bv := w.Read(a), w.Read(b)
			w.Assert((av == 0 && bv == 0) || (av == 1 && bv == -1), "reorder")
		})
		t.JoinAll(w1, ck)
	}
	orig := run(t, prog, sched.NewRandom(), 12345)
	rep := run(t, prog, sched.NewReplay(orig.Trace.ThreadOrder()), 0)
	if !reflect.DeepEqual(orig.Trace.Events, rep.Trace.Events) {
		t.Fatalf("replay diverged:\n--- orig\n%s--- replay\n%s", orig.Trace, rep.Trace)
	}
	if (orig.Failure == nil) != (rep.Failure == nil) {
		t.Fatalf("replay failure mismatch: %v vs %v", orig.Failure, rep.Failure)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	prog := func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		ts := make([]*exec.Thread, 4)
		for i := range ts {
			ts[i] = t.Go("w", func(w *exec.Thread) { w.Add(a, 1) })
		}
		t.JoinAll(ts...)
	}
	r1 := run(t, prog, sched.NewRandom(), 99)
	r2 := run(t, prog, sched.NewRandom(), 99)
	if !reflect.DeepEqual(r1.Trace.Events, r2.Trace.Events) {
		t.Fatal("same seed produced different traces")
	}
	r3 := run(t, prog, sched.NewPOS(), 99)
	r4 := run(t, prog, sched.NewPOS(), 99)
	if !reflect.DeepEqual(r3.Trace.Events, r4.Trace.Events) {
		t.Fatal("POS same seed produced different traces")
	}
}

func TestStepBudgetTruncates(t *testing.T) {
	prog := func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		for {
			t.Write(a, 1) // infinite loop of events
		}
	}
	res := exec.Run("loop", prog, exec.Config{Scheduler: sched.NewRoundRobin(), MaxSteps: 50})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	if res.Buggy() {
		t.Fatalf("truncation must not be a bug: %v", res.Failure)
	}
	if res.Trace.Len() != 50 {
		t.Fatalf("want 50 events, got %d", res.Trace.Len())
	}
}

func TestUnlockNotHeldIsCrash(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		m := t.NewMutex("m")
		t.Unlock(m)
	}, sched.NewRoundRobin(), 1)
	if !res.Buggy() || res.Failure.Kind != exec.FailPanic {
		t.Fatalf("want misuse crash, got %v", res.Failure)
	}
}

func TestAtomicAddAndSwap(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		a := t.NewVar("a", 10)
		old := t.AtomicAdd(a, 5)
		t.Assert(old == 10, "fetch-add old")
		t.Assert(t.Read(a) == 15, "fetch-add new")
		prev := t.AtomicSwap(a, 99)
		t.Assert(prev == 15, "swap old")
		t.Assert(t.Read(a) == 99, "swap new")
	}, sched.NewRoundRobin(), 1)
	if res.Buggy() {
		t.Fatalf("%v", res.Failure)
	}
}

func TestRMWRecordsReadAndWrite(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		t.CAS(a, 0, 1)
	}, sched.NewRoundRobin(), 1)
	tr := res.Trace
	if tr.Len() != 3 {
		t.Fatalf("want init+read+write, got:\n%s", tr)
	}
	if !tr.Event(2).Op.IsRead() || !tr.Event(3).Op.IsWrite() {
		t.Fatalf("RMW event shapes wrong:\n%s", tr)
	}
	if len(tr.Decisions) != 2 { // init + CAS: one decision each
		t.Fatalf("want 2 decisions, got %d", len(tr.Decisions))
	}
}

func TestFailedCASDoesNotWrite(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		a := t.NewVar("a", 5)
		v, ok := t.CAS(a, 0, 1)
		t.Assert(!ok && v == 5, "failed CAS")
		t.Assert(t.Read(a) == 5, "value unchanged")
	}, sched.NewRoundRobin(), 1)
	if res.Buggy() {
		t.Fatalf("%v", res.Failure)
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	prog := func(t *exec.Thread) {
		m := t.NewMutex("m")
		cv := t.NewCond("cv", m)
		ready := t.NewVar("ready", 0)
		mk := func(w *exec.Thread) {
			w.Lock(m)
			for w.Read(ready) == 0 {
				w.Wait(cv)
			}
			w.Unlock(m)
		}
		a, b := t.Go("a", mk), t.Go("b", mk)
		p := t.Go("p", func(w *exec.Thread) {
			w.Lock(m)
			w.Write(ready, 1)
			w.Broadcast(cv)
			w.Unlock(m)
		})
		t.JoinAll(a, b, p)
	}
	for seed := int64(0); seed < 100; seed++ {
		res := run(t, prog, sched.NewRandom(), seed)
		if res.Buggy() {
			t.Fatalf("seed %d: broadcast program failed: %v\n%s", seed, res.Failure, res.Trace)
		}
	}
}

func TestJoinBlocksUntilExit(t *testing.T) {
	res := run(t, func(t *exec.Thread) {
		done := t.NewVar("done", 0)
		c := t.Go("c", func(w *exec.Thread) { w.Write(done, 1) })
		t.Join(c)
		t.Assert(t.Read(done) == 1, "join ordering")
	}, sched.NewRandom(), 3)
	if res.Buggy() {
		t.Fatalf("%v", res.Failure)
	}
}

func TestViewLastWrite(t *testing.T) {
	// Use a probe scheduler to observe View state mid-run.
	probe := &probeScheduler{inner: sched.NewRoundRobin(), a: exec.VarKeyOf("a")}
	exec.Run("probe", func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		t.Write(a, 3)
		t.Read(a)
	}, exec.Config{Scheduler: probe, Seed: 1})
	for _, err := range probe.errs {
		t.Error(err)
	}
	if !probe.sawInitWrite {
		t.Error("View.LastWriteKey never reported the init write")
	}
	if !probe.sawRealWrite {
		t.Error("View.LastWriteKey never reported the real write")
	}
}

// probeScheduler checks, at every Pick, that View.LastWriteKey of "a" is
// the key of the last reads-from source recorded on it (0 before any).
type probeScheduler struct {
	inner        exec.Scheduler
	a            exec.VarKey
	last         exec.Event
	errs         []string
	sawInitWrite bool
	sawRealWrite bool
}

func (p *probeScheduler) Name() string     { return "probe" }
func (p *probeScheduler) Begin(seed int64) { p.inner.Begin(seed) }
func (p *probeScheduler) Pick(v *exec.View) int {
	got := v.LastWriteKey(p.a)
	if got != p.last.Key {
		p.errs = append(p.errs, fmt.Sprintf("step %d: LastWriteKey = %#x, want the key %#x of %v",
			v.Step, got, p.last.Key, p.last))
	}
	switch {
	case got == 0:
	case p.last.Op == exec.OpVarInit:
		p.sawInitWrite = true
	case p.last.Op == exec.OpWrite:
		p.sawRealWrite = true
	}
	return p.inner.Pick(v)
}
func (p *probeScheduler) Executed(ev exec.Event) {
	if ev.Key != exec.KeyOf(ev.Abstract()) {
		p.errs = append(p.errs, fmt.Sprintf("%v: Key %#x, want the key %#x of its abstract event",
			ev, ev.Key, exec.KeyOf(ev.Abstract())))
	}
	if ev.VarStr == "a" && ev.Op.ActsAsWrite() {
		p.last = ev
	}
	p.inner.Executed(ev)
}
func (p *probeScheduler) End(t *exec.Trace) { p.inner.End(t) }
