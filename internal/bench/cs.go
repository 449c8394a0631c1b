package bench

import (
	"fmt"

	"rff/internal/exec"
)

// The CS suite ports the Cordeiro/Fischer context-bounded verification
// benchmarks as packaged in SCTBench: small pthread programs with planted
// assertion violations and deadlocks. These dominate the paper's Appendix
// B table (account, bluetooth_driver, reorder_*, twostage_*, ...).

func init() {
	for _, n := range []int{3, 4, 5, 10, 20, 50, 100} {
		n := n
		register(Program{
			Name:    fmt.Sprintf("CS/reorder_%d", n),
			Suite:   "CS",
			Bug:     BugAssert,
			Threads: n + 1,
			Desc: fmt.Sprintf("%d setter threads write a=1 then b=-1; a checker asserts (a,b) is "+
				"(0,0) or (1,-1) — fails only when it reads between some setter's two writes (Figure 1)", n),
			Body: reorderProgram(n),
		})
	}
	for _, n := range []int{1, 20, 50, 100} {
		n := n
		name := "CS/twostage"
		if n > 1 {
			name = fmt.Sprintf("CS/twostage_%d", n)
		}
		register(Program{
			Name:    name,
			Suite:   "CS",
			Bug:     BugAssert,
			Threads: n + 1,
			Desc: fmt.Sprintf("%d two-stage updaters set data1 under lock A then data2 under lock B; "+
				"a reader asserts data2 == data1+1 and fails when it runs between someone's stages", n),
			Body: twostageProgram(n),
		})
	}
	register(Program{
		Name: "CS/account", Suite: "CS", Bug: BugAssert, Threads: 2,
		Desc: "unsynchronized deposit and withdraw race on the balance; main asserts the final balance",
		Body: accountProgram,
	})
	register(Program{
		Name: "CS/bluetooth_driver", Suite: "CS", Bug: BugAssert, Threads: 2,
		Desc: "driver worker checks stoppingFlag, then touches the device; the stopper sets stoppingFlag and stopped in between (QW2004)",
		Body: bluetoothProgram,
	})
	register(Program{
		Name: "CS/carter01", Suite: "CS", Bug: BugDeadlock, Threads: 2,
		Desc: "conditional lock ordering: both threads take locks A and B in opposite orders behind data-dependent branches",
		Body: carterProgram,
	})
	register(Program{
		Name: "CS/circular_buffer", Suite: "CS", Bug: BugAssert, Threads: 2,
		Desc: "producer/consumer over a ring buffer with a non-atomic element count; racing updates corrupt FIFO order",
		Body: circularBufferProgram,
	})
	register(Program{
		Name: "CS/deadlock01", Suite: "CS", Bug: BugDeadlock, Threads: 2,
		Desc: "classic ABBA: thread 1 locks A then B, thread 2 locks B then A",
		Body: deadlock01Program,
	})
	register(Program{
		Name: "CS/lazy01", Suite: "CS", Bug: BugAssert, Threads: 3,
		Desc: "three lazy initializers add 1, 2 and read; the assert fires when the reader sees the full sum",
		Body: lazy01Program,
	})
	register(Program{
		Name: "CS/queue", Suite: "CS", Bug: BugAssert, Threads: 2,
		Desc: "enqueue and dequeue share a non-atomic element count; racing updates break the FIFO invariant",
		Body: queueProgram,
	})
	register(Program{
		Name: "CS/stack", Suite: "CS", Bug: BugAssert, Threads: 2,
		Desc: "push and pop race on the unprotected top-of-stack index; the bounds assertion fires on over/underflow",
		Body: stackProgram,
	})
	register(Program{
		Name: "CS/token_ring", Suite: "CS", Bug: BugAssert, Threads: 4,
		Desc: "four threads pass a token by unsynchronized read-increment-write; lost updates break the final count",
		Body: tokenRingProgram,
	})
	register(Program{
		Name: "CS/wronglock", Suite: "CS", Bug: BugAssert, Threads: 3,
		Desc: "one updater guards the counter with lock L, two others with lock M: mutual exclusion silently fails",
		Body: wronglockProgram(1, 2),
	})
	register(Program{
		Name: "CS/wronglock_3", Suite: "CS", Bug: BugAssert, Threads: 4,
		Desc: "wronglock with three threads on the wrong lock",
		Body: wronglockProgram(1, 3),
	})
}

// reorderProgram is the paper's Figure 1 subject: n setters, one checker.
func reorderProgram(n int) exec.Program {
	return func(t *exec.Thread) {
		a := t.NewVarAt(site_cs_103, "a", 0)
		b := t.NewVarAt(site_cs_104, "b", 0)
		threads := make([]*exec.Thread, 0, n+1)
		for i := 0; i < n; i++ {
			threads = append(threads, t.GoAt(site_cs_107, "setter", func(w *exec.Thread) {
				w.WriteAt(site_cs_108, a, 1)
				w.WriteAt(site_cs_109, b, -1)
			}))
		}
		threads = append(threads, t.GoAt(site_cs_112, "checker", func(w *exec.Thread) {
			av := w.ReadAt(site_cs_113, a)
			bv := w.ReadAt(site_cs_114, b)
			w.AssertAt(site_cs_115, (av == 0 && bv == 0) || (av == 1 && bv == -1),
				"checker saw a partial setter update")
		}))
		t.JoinAllAt(site_cs_118, threads...)
	}
}

// twostageProgram: n updaters run stage 1 (data1=42 under lock A) and then
// stage 2 (data2=data1+1 under lock B); the reader fails if it observes
// stage 1's effect without any completed stage 2.
func twostageProgram(n int) exec.Program {
	return func(t *exec.Thread) {
		data1 := t.NewVarAt(site_cs_127, "data1", 0)
		data2 := t.NewVarAt(site_cs_128, "data2", 0)
		mA := t.NewMutexAt(site_cs_129, "mA")
		mB := t.NewMutexAt(site_cs_130, "mB")
		threads := make([]*exec.Thread, 0, n+1)
		for i := 0; i < n; i++ {
			threads = append(threads, t.GoAt(site_cs_133, "updater", func(w *exec.Thread) {
				w.LockAt(site_cs_134, mA)
				w.WriteAt(site_cs_135, data1, 42)
				w.UnlockAt(site_cs_136, mA)
				w.LockAt(site_cs_137, mB)
				d1 := w.ReadAt(site_cs_138, data1)
				w.WriteAt(site_cs_139, data2, d1+1)
				w.UnlockAt(site_cs_140, mB)
			}))
		}
		threads = append(threads, t.GoAt(site_cs_143, "reader", func(w *exec.Thread) {
			w.LockAt(site_cs_144, mA)
			d1 := w.ReadAt(site_cs_145, data1)
			w.UnlockAt(site_cs_146, mA)
			if d1 == 0 {
				return // no stage completed yet: nothing to check
			}
			w.LockAt(site_cs_150, mB)
			d2 := w.ReadAt(site_cs_151, data2)
			w.UnlockAt(site_cs_152, mB)
			w.AssertAt(site_cs_153, d2 == d1+1, "reader ran between an updater's two stages")
		}))
		t.JoinAllAt(site_cs_155, threads...)
	}
}

// accountProgram: classic unsynchronized bank account.
func accountProgram(t *exec.Thread) {
	balance := t.NewVarAt(site_cs_161, "balance", 100)
	dep := t.GoAt(site_cs_162, "deposit", func(w *exec.Thread) {
		b := w.ReadAt(site_cs_163, balance)
		w.WriteAt(site_cs_164, balance, b+50)
	})
	wdr := t.GoAt(site_cs_166, "withdraw", func(w *exec.Thread) {
		b := w.ReadAt(site_cs_167, balance)
		w.WriteAt(site_cs_168, balance, b-50)
	})
	t.JoinAllAt(site_cs_170, dep, wdr)
	t.AssertAt(site_cs_171, t.ReadAt(site_cs_171, balance) == 100, "deposit or withdrawal lost")
}

// bluetoothProgram models the QW2004 Bluetooth driver stop race.
func bluetoothProgram(t *exec.Thread) {
	stoppingFlag := t.NewVarAt(site_cs_176, "stoppingFlag", 0)
	stopped := t.NewVarAt(site_cs_177, "stopped", 0)
	pendingIO := t.NewVarAt(site_cs_178, "pendingIO", 1)

	adder := t.GoAt(site_cs_180, "BCSP_PnpAdd", func(w *exec.Thread) {
		if w.ReadAt(site_cs_181, stoppingFlag) != 0 {
			return // driver shutting down; bail out
		}
		// Driver believes it is safe to work: bump pending I/O and touch
		// the device.
		p := w.ReadAt(site_cs_186, pendingIO)
		w.WriteAt(site_cs_187, pendingIO, p+1)
		w.AssertAt(site_cs_188, w.ReadAt(site_cs_188, stopped) == 0, "device used after stop completed")
		p = w.ReadAt(site_cs_189, pendingIO)
		w.WriteAt(site_cs_190, pendingIO, p-1)
	})
	stopper := t.GoAt(site_cs_192, "BCSP_PnpStop", func(w *exec.Thread) {
		w.WriteAt(site_cs_193, stoppingFlag, 1)
		p := w.ReadAt(site_cs_194, pendingIO)
		w.WriteAt(site_cs_195, pendingIO, p-1)
		// In the original the stopper waits for pending I/O to drain; the
		// race fires regardless because the adder checked stoppingFlag
		// before the store became visible.
		w.WriteAt(site_cs_199, stopped, 1)
	})
	t.JoinAllAt(site_cs_201, adder, stopper)
}

// carterProgram: data-dependent opposite lock orders.
func carterProgram(t *exec.Thread) {
	mA := t.NewMutexAt(site_cs_206, "A")
	mB := t.NewMutexAt(site_cs_207, "B")
	x := t.NewVarAt(site_cs_208, "x", 0)
	t1 := t.GoAt(site_cs_209, "t1", func(w *exec.Thread) {
		w.LockAt(site_cs_210, mA)
		v := w.ReadAt(site_cs_211, x)
		w.WriteAt(site_cs_212, x, v+1)
		w.LockAt(site_cs_213, mB)
		w.UnlockAt(site_cs_214, mB)
		w.UnlockAt(site_cs_215, mA)
	})
	t2 := t.GoAt(site_cs_217, "t2", func(w *exec.Thread) {
		w.LockAt(site_cs_218, mB)
		v := w.ReadAt(site_cs_219, x)
		w.WriteAt(site_cs_220, x, v+2)
		w.LockAt(site_cs_221, mA)
		w.UnlockAt(site_cs_222, mA)
		w.UnlockAt(site_cs_223, mB)
	})
	t.JoinAllAt(site_cs_225, t1, t2)
}

// circularBufferProgram: ring buffer with a racy element count.
func circularBufferProgram(t *exec.Thread) {
	const size = 4
	const items = 5
	buf := t.NewVarsAt(site_cs_232, "buf", size, 0)
	count := t.NewVarAt(site_cs_233, "count", 0)

	producer := t.GoAt(site_cs_235, "producer", func(w *exec.Thread) {
		in := 0
		for i := 1; i <= items; i++ {
			for tries := 0; w.ReadAt(site_cs_238, count) >= size; tries++ {
				if tries > 2*items {
					return // consumer stalled; give up quietly
				}
				w.YieldAt(site_cs_242)
			}
			w.WriteAt(site_cs_244, buf[in], int64(i))
			in = (in + 1) % size
			c := w.ReadAt(site_cs_246, count)
			w.WriteAt(site_cs_247, count, c+1) // non-atomic: the bug
		}
	})
	consumer := t.GoAt(site_cs_250, "consumer", func(w *exec.Thread) {
		out := 0
		for i := 1; i <= items; i++ {
			for tries := 0; w.ReadAt(site_cs_253, count) <= 0; tries++ {
				if tries > 2*items {
					return
				}
				w.YieldAt(site_cs_257)
			}
			v := w.ReadAt(site_cs_259, buf[out])
			out = (out + 1) % size
			c := w.ReadAt(site_cs_261, count)
			w.WriteAt(site_cs_262, count, c-1) // non-atomic: the bug
			w.AssertfAt(site_cs_263, v == int64(i), "FIFO order broken: got %d want %d", v, i)
		}
	})
	t.JoinAllAt(site_cs_266, producer, consumer)
}

// deadlock01Program: unconditional ABBA deadlock.
func deadlock01Program(t *exec.Thread) {
	mA := t.NewMutexAt(site_cs_271, "A")
	mB := t.NewMutexAt(site_cs_272, "B")
	t1 := t.GoAt(site_cs_273, "t1", func(w *exec.Thread) {
		w.LockAt(site_cs_274, mA)
		w.YieldAt(site_cs_275)
		w.LockAt(site_cs_276, mB)
		w.UnlockAt(site_cs_277, mB)
		w.UnlockAt(site_cs_278, mA)
	})
	t2 := t.GoAt(site_cs_280, "t2", func(w *exec.Thread) {
		w.LockAt(site_cs_281, mB)
		w.YieldAt(site_cs_282)
		w.LockAt(site_cs_283, mA)
		w.UnlockAt(site_cs_284, mA)
		w.UnlockAt(site_cs_285, mB)
	})
	t.JoinAllAt(site_cs_287, t1, t2)
}

// lazy01Program: the SV-COMP lazy01 three-thread assertion.
func lazy01Program(t *exec.Thread) {
	m := t.NewMutexAt(site_cs_292, "m")
	data := t.NewVarAt(site_cs_293, "data", 0)
	t1 := t.GoAt(site_cs_294, "t1", func(w *exec.Thread) {
		w.LockAt(site_cs_295, m)
		d := w.ReadAt(site_cs_296, data)
		w.WriteAt(site_cs_297, data, d+1)
		w.UnlockAt(site_cs_298, m)
	})
	t2 := t.GoAt(site_cs_300, "t2", func(w *exec.Thread) {
		w.LockAt(site_cs_301, m)
		d := w.ReadAt(site_cs_302, data)
		w.WriteAt(site_cs_303, data, d+2)
		w.UnlockAt(site_cs_304, m)
	})
	t3 := t.GoAt(site_cs_306, "t3", func(w *exec.Thread) {
		w.LockAt(site_cs_307, m)
		d := w.ReadAt(site_cs_308, data)
		w.UnlockAt(site_cs_309, m)
		w.AssertAt(site_cs_310, d < 3, "reader observed both updates (lazy01 reachable assert)")
	})
	t.JoinAllAt(site_cs_312, t1, t2, t3)
}

// queueProgram: FIFO with a racy shared element count.
func queueProgram(t *exec.Thread) {
	const n = 4
	slots := t.NewVarsAt(site_cs_318, "q", n, 0)
	amount := t.NewVarAt(site_cs_319, "amount", 0)

	enq := t.GoAt(site_cs_321, "enqueue", func(w *exec.Thread) {
		for i := 1; i <= n; i++ {
			// BUG: the element count is published before the slot is
			// written, so a racing dequeuer can read an empty slot.
			a := w.ReadAt(site_cs_325, amount)
			w.WriteAt(site_cs_326, amount, a+1)
			w.WriteAt(site_cs_327, slots[i-1], int64(i))
		}
	})
	deq := t.GoAt(site_cs_330, "dequeue", func(w *exec.Thread) {
		got := 0
		for tries := 0; got < n && tries < 6*n; tries++ {
			a := w.ReadAt(site_cs_333, amount)
			if a <= 0 {
				w.YieldAt(site_cs_335)
				continue
			}
			v := w.ReadAt(site_cs_338, slots[got])
			w.AssertfAt(site_cs_339, v == int64(got+1), "dequeued %d want %d (count published early)", v, got+1)
			got++
			w.WriteAt(site_cs_341, amount, a-1)
		}
	})
	t.JoinAllAt(site_cs_344, enq, deq)
}

// stackProgram follows the SV-COMP stack_bad shape: pushes and pops are
// individually locked, but the popper gates on a sticky "stack has
// elements" flag instead of the live count, so it can pop from an empty
// stack.
func stackProgram(t *exec.Thread) {
	const size = 3
	arr := t.NewVarsAt(site_cs_353, "s", size, 0)
	top := t.NewVarAt(site_cs_354, "top", 0)
	flag := t.NewVarAt(site_cs_355, "flag", 0)
	m := t.NewMutexAt(site_cs_356, "m")

	pusher := t.GoAt(site_cs_358, "push", func(w *exec.Thread) {
		for i := 1; i <= size; i++ {
			w.LockAt(site_cs_360, m)
			tp := w.ReadAt(site_cs_361, top)
			w.WriteAt(site_cs_362, arr[tp], int64(i))
			w.WriteAt(site_cs_363, top, tp+1)
			w.WriteAt(site_cs_364, flag, 1) // "stack non-empty" — never cleared: the bug
			w.UnlockAt(site_cs_365, m)
		}
	})
	popper := t.GoAt(site_cs_368, "pop", func(w *exec.Thread) {
		for i := 0; i < size; i++ {
			w.LockAt(site_cs_370, m)
			if w.ReadAt(site_cs_371, flag) != 0 {
				tp := w.ReadAt(site_cs_372, top)
				w.AssertfAt(site_cs_373, tp > 0, "pop from empty stack (stale non-empty flag)")
				w.ReadAt(site_cs_374, arr[tp-1])
				w.WriteAt(site_cs_375, top, tp-1)
			}
			w.UnlockAt(site_cs_377, m)
		}
	})
	t.JoinAllAt(site_cs_380, pusher, popper)
}

// tokenRingProgram: four unsynchronized token increments.
func tokenRingProgram(t *exec.Thread) {
	token := t.NewVarAt(site_cs_385, "token", 0)
	const n = 4
	threads := make([]*exec.Thread, n)
	for i := range threads {
		threads[i] = t.GoAt(site_cs_389, "node", func(w *exec.Thread) {
			v := w.ReadAt(site_cs_390, token)
			w.WriteAt(site_cs_391, token, v+1)
		})
	}
	t.JoinAllAt(site_cs_394, threads...)
	t.AssertfAt(site_cs_395, t.ReadAt(site_cs_395, token) == n, "token lost in the ring: %d/%d", t.ReadAt(site_cs_395, token), n)
}

// wronglockProgram: nRight threads guard the counter with the correct lock,
// nWrong threads with a different one.
func wronglockProgram(nRight, nWrong int) exec.Program {
	return func(t *exec.Thread) {
		data := t.NewVarAt(site_cs_402, "data", 0)
		lockL := t.NewMutexAt(site_cs_403, "L")
		lockM := t.NewMutexAt(site_cs_404, "M")
		total := nRight + nWrong
		threads := make([]*exec.Thread, 0, total)
		for i := 0; i < nRight; i++ {
			threads = append(threads, t.GoAt(site_cs_408, "right", func(w *exec.Thread) {
				w.LockAt(site_cs_409, lockL)
				d := w.ReadAt(site_cs_410, data)
				w.WriteAt(site_cs_411, data, d+1)
				w.UnlockAt(site_cs_412, lockL)
			}))
		}
		for i := 0; i < nWrong; i++ {
			threads = append(threads, t.GoAt(site_cs_416, "wrong", func(w *exec.Thread) {
				w.LockAt(site_cs_417, lockM)
				d := w.ReadAt(site_cs_418, data)
				w.WriteAt(site_cs_419, data, d+1)
				w.UnlockAt(site_cs_420, lockM)
			}))
		}
		t.JoinAllAt(site_cs_423, threads...)
		t.AssertfAt(site_cs_424, t.ReadAt(site_cs_424, data) == int64(total), "update lost under mismatched locks: %d/%d",
			t.ReadAt(site_cs_425, data), total)
	}
}
