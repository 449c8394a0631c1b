package bench

import "rff/internal/exec"

// The Inspect suite ports the University of Utah Inspect benchmarks used
// in SCTBench: a condition-variable bounded buffer with the classic
// if-instead-of-while wakeup bug, the ctrace library race, and the
// qsort_mt work-handoff termination race.

func init() {
	register(Program{
		Name: "Inspect_benchmarks/boundedBuffer", Suite: "Inspect", Bug: BugAssert, Threads: 4,
		Desc: "two producers and two consumers share one condition variable and re-check with `if`: a wrong wakeup overflows or underflows the buffer",
		Body: boundedBufferProgram,
	})
	register(Program{
		Name: "Inspect_benchmarks/ctrace-test", Suite: "Inspect", Bug: BugAssert, Threads: 2,
		Desc: "the ctrace event counter is updated without the trace lock; a lost update trips the final count assert",
		Body: ctraceProgram,
	})
	register(Program{
		Name: "Inspect_benchmarks/qsort_mt", Suite: "Inspect", Bug: BugAssert, Threads: 3,
		Desc: "parallel quicksort decrements the pending-work counter before enqueueing subtasks: workers can observe a transiently idle pool and terminate early",
		Body: qsortMTProgram,
	})
}

// boundedBufferProgram: capacity-1 buffer, one shared condition variable,
// `if` re-checks — the canonical wrong-wakeup bug.
func boundedBufferProgram(t *exec.Thread) {
	const cap = 1
	const perThread = 2
	m := t.NewMutexAt(site_inspect_33, "m")
	cv := t.NewCondAt(site_inspect_34, "cv", m)
	count := t.NewVarAt(site_inspect_35, "count", 0)

	producer := func(w *exec.Thread) {
		for i := 0; i < perThread; i++ {
			w.LockAt(site_inspect_39, m)
			if w.ReadAt(site_inspect_40, count) == cap {
				w.WaitAt(site_inspect_41, cv) // BUG: must be `while`
			}
			c := w.ReadAt(site_inspect_43, count)
			w.AssertfAt(site_inspect_44, c < cap, "buffer overflow: count=%d", c)
			w.WriteAt(site_inspect_45, count, c+1)
			w.SignalAt(site_inspect_46, cv)
			w.UnlockAt(site_inspect_47, m)
		}
	}
	consumer := func(w *exec.Thread) {
		for i := 0; i < perThread; i++ {
			w.LockAt(site_inspect_52, m)
			if w.ReadAt(site_inspect_53, count) == 0 {
				w.WaitAt(site_inspect_54, cv) // BUG: must be `while`
			}
			c := w.ReadAt(site_inspect_56, count)
			w.AssertfAt(site_inspect_57, c > 0, "buffer underflow: count=%d", c)
			w.WriteAt(site_inspect_58, count, c-1)
			w.SignalAt(site_inspect_59, cv)
			w.UnlockAt(site_inspect_60, m)
		}
	}
	p1 := t.GoAt(site_inspect_63, "p1", producer)
	p2 := t.GoAt(site_inspect_64, "p2", producer)
	c1 := t.GoAt(site_inspect_65, "c1", consumer)
	c2 := t.GoAt(site_inspect_66, "c2", consumer)
	t.JoinAllAt(site_inspect_67, p1, p2, c1, c2)
}

// ctraceProgram: trace events counted without the lock.
func ctraceProgram(t *exec.Thread) {
	events := t.NewVarAt(site_inspect_72, "trace_events", 0)
	lock := t.NewMutexAt(site_inspect_73, "trace_lock")
	worker := func(w *exec.Thread) {
		w.LockAt(site_inspect_75, lock)
		w.UnlockAt(site_inspect_76, lock) // the lock guards the buffer, not the counter
		e := w.ReadAt(site_inspect_77, events)
		w.WriteAt(site_inspect_78, events, e+1)
	}
	a := t.GoAt(site_inspect_80, "a", worker)
	b := t.GoAt(site_inspect_81, "b", worker)
	t.JoinAllAt(site_inspect_82, a, b)
	t.AssertfAt(site_inspect_83, t.ReadAt(site_inspect_83, events) == 2, "trace event lost: %d/2", t.ReadAt(site_inspect_83, events))
}

// qsortMTProgram: a three-worker task pool where the root task spawns two
// subtasks but the shared pending counter is decremented before the
// subtasks are enqueued, opening a termination race.
func qsortMTProgram(t *exec.Thread) {
	const workers = 3
	queue := t.NewVarsAt(site_inspect_91, "task", 4, 0) // task slots; value = task id + 1
	qlen := t.NewVarAt(site_inspect_92, "qlen", 0)
	qlock := t.NewMutexAt(site_inspect_93, "qlock")
	pending := t.NewVarAt(site_inspect_94, "pending", 1)
	processed := t.NewVarAt(site_inspect_95, "processed", 0)

	// Seed the root task (id 1).
	t.WriteAt(site_inspect_98, queue[0], 1)
	t.WriteAt(site_inspect_99, qlen, 1)

	worker := func(w *exec.Thread) {
		// Each worker handles at most two partitions before retiring, as
		// in the original's bounded thread pool.
		done := 0
		for tries := 0; tries < 24 && done < 2; tries++ {
			if w.ReadAt(site_inspect_106, pending) == 0 {
				return // pool looks idle: terminate (possibly too early)
			}
			w.LockAt(site_inspect_109, qlock)
			n := w.ReadAt(site_inspect_110, qlen)
			var task int64
			if n > 0 {
				task = w.ReadAt(site_inspect_113, queue[n-1])
				w.WriteAt(site_inspect_114, qlen, n-1)
			}
			w.UnlockAt(site_inspect_116, qlock)
			if task == 0 {
				w.YieldAt(site_inspect_118)
				continue
			}
			// "Sort" the partition.
			w.AtomicAddAt(site_inspect_122, processed, 1)
			done++
			if task == 1 {
				// BUG: the root marks itself done before publishing its
				// two subtasks, so pending transiently reads 0.
				p := w.ReadAt(site_inspect_127, pending)
				w.WriteAt(site_inspect_128, pending, p-1)
				w.LockAt(site_inspect_129, qlock)
				n := w.ReadAt(site_inspect_130, qlen)
				w.WriteAt(site_inspect_131, queue[n], 2)
				w.WriteAt(site_inspect_132, queue[n+1], 3)
				w.WriteAt(site_inspect_133, qlen, n+2)
				w.UnlockAt(site_inspect_134, qlock)
				p = w.ReadAt(site_inspect_135, pending)
				w.WriteAt(site_inspect_136, pending, p+2)
			} else {
				p := w.ReadAt(site_inspect_138, pending)
				w.WriteAt(site_inspect_139, pending, p-1)
			}
		}
	}
	ws := make([]*exec.Thread, workers)
	for i := range ws {
		ws[i] = t.GoAt(site_inspect_145, "worker", worker)
	}
	t.JoinAllAt(site_inspect_147, ws...)
	t.AssertfAt(site_inspect_148, t.ReadAt(site_inspect_148, processed) == 3, "partitions left unsorted: %d/3 (early termination)",
		t.ReadAt(site_inspect_149, processed))
}
