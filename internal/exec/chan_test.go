package exec_test

import (
	"strings"
	"testing"

	"rff/internal/exec"
	"rff/internal/sched"
)

// runSeeds executes prog under the random scheduler for many seeds and
// hands each result to check. Every trace must validate.
func runSeeds(t *testing.T, name string, prog exec.Program, seeds int64, check func(int64, *exec.Result)) {
	t.Helper()
	for seed := int64(0); seed < seeds; seed++ {
		res := exec.Run(name, prog, exec.Config{Scheduler: sched.NewRandom(), Seed: seed})
		if err := res.Trace.Validate(); err != nil {
			t.Fatalf("seed %d: invalid trace: %v\n%s", seed, err, res.Trace)
		}
		check(seed, res)
	}
}

func TestChanRendezvousTransfersValue(t *testing.T) {
	// Unbuffered: the sender is enabled only while the receiver parks,
	// so the value always arrives intact regardless of schedule.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 0)
		p := t.Go("p", func(w *exec.Thread) { w.Send(ch, 42) })
		c := t.Go("c", func(w *exec.Thread) {
			v, ok := w.Recv(ch)
			w.Assertf(ok && v == 42, "got (%d,%t), want (42,true)", v, ok)
		})
		t.JoinAll(p, c)
	}
	runSeeds(t, "rendezvous", prog, 100, func(seed int64, res *exec.Result) {
		if res.Buggy() {
			t.Fatalf("seed %d: %v\n%s", seed, res.Failure, res.Trace)
		}
	})
}

func TestChanBufferedFIFO(t *testing.T) {
	// A capacity-2 buffer preserves send order for a single producer.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 2)
		p := t.Go("p", func(w *exec.Thread) {
			w.Send(ch, 1)
			w.Send(ch, 2)
		})
		c := t.Go("c", func(w *exec.Thread) {
			a, _ := w.Recv(ch)
			b, _ := w.Recv(ch)
			w.Assertf(a == 1 && b == 2, "got %d,%d, want 1,2", a, b)
		})
		t.JoinAll(p, c)
	}
	runSeeds(t, "fifo", prog, 100, func(seed int64, res *exec.Result) {
		if res.Buggy() {
			t.Fatalf("seed %d: %v\n%s", seed, res.Failure, res.Trace)
		}
	})
}

func TestChanRecvOnClosedDrained(t *testing.T) {
	// Receiving from a closed, drained channel yields (0, false) and the
	// receive event reads-from the close.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 1)
		t.Send(ch, 7)
		t.Close(ch)
		v, ok := t.Recv(ch)
		t.Assertf(ok && v == 7, "buffered value lost: (%d,%t)", v, ok)
		v, ok = t.Recv(ch)
		t.Assertf(!ok && v == 0, "drained recv got (%d,%t), want (0,false)", v, ok)
	}
	runSeeds(t, "closed-drain", prog, 10, func(seed int64, res *exec.Result) {
		if res.Buggy() {
			t.Fatalf("seed %d: %v\n%s", seed, res.Failure, res.Trace)
		}
	})
}

func TestChanSendOnClosedCrashes(t *testing.T) {
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 1)
		t.Close(ch)
		t.Send(ch, 1)
	}
	res := exec.Run("send-closed", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailSendClosed {
		t.Fatalf("want FailSendClosed, got %v", res.Failure)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("invalid trace: %v", err)
	}
}

func TestChanCloseOfClosedCrashes(t *testing.T) {
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 0)
		t.Close(ch)
		t.Close(ch)
	}
	res := exec.Run("close-closed", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailCloseClosed {
		t.Fatalf("want FailCloseClosed, got %v", res.Failure)
	}
}

func TestChanTrySendOutcomes(t *testing.T) {
	// On a full capacity-1 buffer TrySend reports false without blocking;
	// after a drain it succeeds.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 1)
		t.Assert(t.TrySend(ch, 1), "send into empty buffer failed")
		t.Assert(!t.TrySend(ch, 2), "send into full buffer succeeded")
		v, ok := t.Recv(ch)
		t.Assertf(ok && v == 1, "got (%d,%t)", v, ok)
		t.Assert(t.TrySend(ch, 3), "send after drain failed")
	}
	res := exec.Run("trysend", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("%v\n%s", res.Failure, res.Trace)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChanTryRecvOutcomes(t *testing.T) {
	// TryRecv distinguishes would-block (recvd=false), a value
	// (ok=true), and closure (recvd=true, ok=false).
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 1)
		_, _, recvd := t.TryRecv(ch)
		t.Assert(!recvd, "empty open channel delivered")
		t.Send(ch, 9)
		v, ok, recvd := t.TryRecv(ch)
		t.Assertf(recvd && ok && v == 9, "got (%d,%t,%t)", v, ok, recvd)
		t.Close(ch)
		v, ok, recvd = t.TryRecv(ch)
		t.Assertf(recvd && !ok && v == 0, "closed: got (%d,%t,%t)", v, ok, recvd)
	}
	res := exec.Run("tryrecv", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("%v\n%s", res.Failure, res.Trace)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChanTrySendOnClosedCrashes(t *testing.T) {
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 1)
		t.Close(ch)
		t.TrySend(ch, 1)
	}
	res := exec.Run("trysend-closed", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailSendClosed {
		t.Fatalf("want FailSendClosed, got %v", res.Failure)
	}
}

func TestSelectPicksLowestReadyCase(t *testing.T) {
	// Both channels hold a value, so case 0 must fire: selection among
	// ready cases is deterministic by index.
	prog := func(t *exec.Thread) {
		a := t.NewChan("a", 1)
		b := t.NewChan("b", 1)
		t.Send(a, 1)
		t.Send(b, 2)
		idx, v, ok := t.Select(exec.RecvCase(a), exec.RecvCase(b))
		t.Assertf(idx == 0 && v == 1 && ok, "got (%d,%d,%t), want (0,1,true)", idx, v, ok)
	}
	res := exec.Run("select-det", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("%v\n%s", res.Failure, res.Trace)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectFanIn(t *testing.T) {
	// Two producers on separate unbuffered channels, one consumer
	// selecting over both: every schedule delivers both values.
	prog := func(t *exec.Thread) {
		a := t.NewChan("a", 0)
		b := t.NewChan("b", 0)
		sum := t.NewVar("sum", 0)
		p1 := t.Go("p1", func(w *exec.Thread) { w.Send(a, 1) })
		p2 := t.Go("p2", func(w *exec.Thread) { w.Send(b, 2) })
		c := t.Go("c", func(w *exec.Thread) {
			for i := 0; i < 2; i++ {
				_, v, ok := w.Select(exec.RecvCase(a), exec.RecvCase(b))
				w.Assert(ok, "fan-in receive not ok")
				w.Write(sum, w.Read(sum)+v)
			}
			w.Assertf(w.Read(sum) == 3, "sum %d, want 3", w.Read(sum))
		})
		t.JoinAll(p1, p2, c)
	}
	runSeeds(t, "fanin", prog, 200, func(seed int64, res *exec.Result) {
		if res.Buggy() {
			t.Fatalf("seed %d: %v\n%s", seed, res.Failure, res.Trace)
		}
	})
}

func TestSelectSendArm(t *testing.T) {
	// A select whose only ready arm is a send fires it; the parked
	// receiver observes the value.
	prog := func(t *exec.Thread) {
		a := t.NewChan("a", 0)
		b := t.NewChan("b", 0)
		c := t.Go("c", func(w *exec.Thread) {
			v, ok := w.Recv(b)
			w.Assertf(ok && v == 5, "got (%d,%t)", v, ok)
		})
		p := t.Go("p", func(w *exec.Thread) {
			idx, _, ok := w.Select(exec.RecvCase(a), exec.SendCase(b, 5))
			w.Assertf(idx == 1 && ok, "got (%d,%t), want (1,true)", idx, ok)
		})
		t.JoinAll(c, p)
	}
	runSeeds(t, "select-send", prog, 100, func(seed int64, res *exec.Result) {
		if res.Buggy() {
			t.Fatalf("seed %d: %v\n%s", seed, res.Failure, res.Trace)
		}
	})
}

func TestChanDeadlockDetected(t *testing.T) {
	// Receive on an empty open channel no one ever sends on: the
	// engine's deadlock detector must fire and name the channel.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 0)
		t.Recv(ch)
	}
	res := exec.Run("chan-deadlock", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailDeadlock {
		t.Fatalf("want FailDeadlock, got %v", res.Failure)
	}
	if !strings.Contains(res.Failure.Msg, "ch") {
		t.Fatalf("deadlock message does not name the channel: %q", res.Failure.Msg)
	}
}

func TestSelectDeadlockDetected(t *testing.T) {
	// A select with no ready case and no other threads deadlocks; the
	// message lists the channels involved.
	prog := func(t *exec.Thread) {
		a := t.NewChan("a", 0)
		b := t.NewChan("b", 0)
		t.Select(exec.RecvCase(a), exec.RecvCase(b))
	}
	res := exec.Run("select-deadlock", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailDeadlock {
		t.Fatalf("want FailDeadlock, got %v", res.Failure)
	}
	if !strings.Contains(res.Failure.Msg, "a,b") {
		t.Fatalf("deadlock message does not list select channels: %q", res.Failure.Msg)
	}
}

func TestUnbufferedSendBlocksWithoutReceiver(t *testing.T) {
	// The rendezvous discipline: a lone unbuffered send is never
	// enabled, so the program deadlocks rather than completing.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 0)
		t.Send(ch, 1)
	}
	res := exec.Run("send-blocks", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailDeadlock {
		t.Fatalf("want FailDeadlock, got %v", res.Failure)
	}
}

func TestWaitGroupGatesWaiter(t *testing.T) {
	// The waiter must observe both workers' writes: WgWait is enabled
	// only once the counter returns to zero.
	prog := func(t *exec.Thread) {
		wg := t.NewWaitGroup("wg")
		x := t.NewVar("x", 0)
		y := t.NewVar("y", 0)
		t.WgAdd(wg, 2)
		w1 := t.Go("w1", func(w *exec.Thread) {
			w.Write(x, 1)
			w.WgDone(wg)
		})
		w2 := t.Go("w2", func(w *exec.Thread) {
			w.Write(y, 1)
			w.WgDone(wg)
		})
		t.WgWait(wg)
		t.Assertf(t.Read(x) == 1 && t.Read(y) == 1, "waiter ran early: x=%d y=%d", t.Read(x), t.Read(y))
		t.JoinAll(w1, w2)
	}
	runSeeds(t, "wg-gate", prog, 200, func(seed int64, res *exec.Result) {
		if res.Buggy() {
			t.Fatalf("seed %d: %v\n%s", seed, res.Failure, res.Trace)
		}
	})
}

func TestWaitGroupNegativeCounterPanics(t *testing.T) {
	prog := func(t *exec.Thread) {
		wg := t.NewWaitGroup("wg")
		t.WgDone(wg)
	}
	res := exec.Run("wg-negative", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailPanic {
		t.Fatalf("want FailPanic, got %v", res.Failure)
	}
	if !strings.Contains(res.Failure.Msg, "negative WaitGroup counter") {
		t.Fatalf("unexpected message %q", res.Failure.Msg)
	}
}

func TestWaitGroupMissingDoneDeadlocks(t *testing.T) {
	prog := func(t *exec.Thread) {
		wg := t.NewWaitGroup("wg")
		t.WgAdd(wg, 1)
		t.WgWait(wg)
	}
	res := exec.Run("wg-deadlock", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if !res.Buggy() || res.Failure.Kind != exec.FailDeadlock {
		t.Fatalf("want FailDeadlock, got %v", res.Failure)
	}
}

func TestChanReplayReproducesTrace(t *testing.T) {
	// Decision-sequence replay must reproduce a channel-heavy trace
	// bit-identically, including a send-on-closed crash.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 1)
		p := t.Go("p", func(w *exec.Thread) {
			w.Send(ch, 1)
			w.Send(ch, 2)
		})
		k := t.Go("k", func(w *exec.Thread) { w.Close(ch) })
		c := t.Go("c", func(w *exec.Thread) {
			w.Recv(ch)
			w.Recv(ch)
		})
		t.JoinAll(p, k, c)
	}
	for seed := int64(0); seed < 100; seed++ {
		res := exec.Run("replay", prog, exec.Config{Scheduler: sched.NewRandom(), Seed: seed})
		rep := exec.Run("replay", prog, exec.Config{Scheduler: sched.NewReplay(res.Trace.ThreadOrder())})
		if res.Trace.String() != rep.Trace.String() {
			t.Fatalf("seed %d: replay diverged\noriginal:\n%s\nreplay:\n%s", seed, res.Trace, rep.Trace)
		}
		if res.Buggy() != rep.Buggy() || (res.Buggy() && res.Failure.Kind != rep.Failure.Kind) {
			t.Fatalf("seed %d: failure mismatch: %v vs %v", seed, res.Failure, rep.Failure)
		}
	}
}

func TestChanRFPairsFeedSummary(t *testing.T) {
	// send->recv must surface as an abstract reads-from pair so the
	// fuzzer's feedback distinguishes channel schedules.
	prog := func(t *exec.Thread) {
		ch := t.NewChan("ch", 0)
		p := t.Go("p", func(w *exec.Thread) { w.SendAt(exec.SiteAt("send.loc"), ch, 1) })
		c := t.Go("c", func(w *exec.Thread) { w.RecvAt(exec.SiteAt("recv.loc"), ch) })
		t.JoinAll(p, c)
	}
	res := exec.Run("rfpairs", prog, exec.Config{Scheduler: sched.NewRoundRobin()})
	if res.Buggy() {
		t.Fatalf("%v\n%s", res.Failure, res.Trace)
	}
	found := false
	for _, pr := range res.Trace.RFPairs() {
		if pr.Read.Op == exec.OpRecv && pr.Read.Loc == "recv.loc" &&
			pr.Write.Op == exec.OpSend && pr.Write.Loc == "send.loc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no send->recv rf pair in %v", res.Trace.RFPairs())
	}
}
