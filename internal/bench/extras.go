package bench

import "rff/internal/exec"

// The Extras suite goes beyond the paper's 49 subjects: curated programs
// exercising the engine's remaining pthread surface (reader-writer locks,
// semaphores, trylock, barriers), in the spirit of the artifact's
// "additional curated examples not discussed in the paper". They are
// excluded from the paper-reproduction matrix by default.

func init() {
	register(Program{
		Name: "Extras/reorder_2", Suite: "Extras", Bug: BugAssert, Threads: 3,
		Desc: "two-setter reorder, small enough for exhaustive enumeration — the subject of the E8 reads-from class count",
		Body: reorderProgram(2),
	})
	register(Program{
		Name: "Extras/rwlock_upgrade", Suite: "Extras", Bug: BugAssert, Threads: 3,
		Desc: "two readers release the rwlock and re-acquire it as writers to apply an update computed under the read lock: the classic unsafe upgrade loses one update",
		Body: rwlockUpgradeProgram,
	})
	register(Program{
		Name: "Extras/semaphore_leak", Suite: "Extras", Bug: BugDeadlock, Threads: 2,
		Desc: "the producer's error path skips its sem_post, deadlocking a consumer that already committed to waiting",
		Body: semaphoreLeakProgram,
	})
	register(Program{
		Name: "Extras/trylock_fallback", Suite: "Extras", Bug: BugAssert, Threads: 2,
		Desc: "a trylock failure takes an unsynchronized fallback path that races the lock holder",
		Body: trylockFallbackProgram,
	})
	register(Program{
		Name: "Extras/barrier_phase_leak", Suite: "Extras", Bug: BugAssert, Threads: 3,
		Desc: "one worker updates the next phase's input before the barrier because its guard reads a stale phase counter",
		Body: barrierPhaseLeakProgram,
	})
}

// rwlockUpgradeProgram: read-compute-upgrade-write without holding the
// lock across the upgrade.
func rwlockUpgradeProgram(t *exec.Thread) {
	rw := t.NewRWMutexAt(site_extras_42, "rw")
	counter := t.NewVarAt(site_extras_43, "counter", 0)
	upgrader := func(w *exec.Thread) {
		w.RLockAt(site_extras_45, rw)
		v := w.ReadAt(site_extras_46, counter) // compute under shared lock
		w.RUnlockAt(site_extras_47, rw)
		w.WLockAt(site_extras_48, rw) // unsafe upgrade: the world may have changed
		w.WriteAt(site_extras_49, counter, v+1)
		w.WUnlockAt(site_extras_50, rw)
	}
	a, b := t.GoAt(site_extras_52, "a", upgrader), t.GoAt(site_extras_52, "b", upgrader)
	t.JoinAllAt(site_extras_53, a, b)
	t.AssertfAt(site_extras_54, t.ReadAt(site_extras_54, counter) == 2, "upgrade lost an update: %d/2", t.ReadAt(site_extras_54, counter))
}

// semaphoreLeakProgram: a sem_post skipped on the racy error path.
func semaphoreLeakProgram(t *exec.Thread) {
	items := t.NewSemaphoreAt(site_extras_59, "items", 0)
	errFlag := t.NewVarAt(site_extras_60, "err", 0)
	consumer := t.GoAt(site_extras_61, "consumer", func(w *exec.Thread) {
		if w.ReadAt(site_extras_62, errFlag) != 0 {
			return // producer reported failure before we committed
		}
		w.SemWaitAt(site_extras_65, items) // may wait forever if the producer bailed late
	})
	producer := t.GoAt(site_extras_67, "producer", func(w *exec.Thread) {
		// The producer fails after the consumer's error check but
		// before posting.
		w.WriteAt(site_extras_70, errFlag, 1)
		// BUG: early return on error skips w.SemPost(items).
	})
	t.JoinAllAt(site_extras_73, consumer, producer)
}

// trylockFallbackProgram: failed trylock falls back to unsynchronized
// access.
func trylockFallbackProgram(t *exec.Thread) {
	m := t.NewMutexAt(site_extras_79, "m")
	shared := t.NewVarAt(site_extras_80, "shared", 0)
	holder := t.GoAt(site_extras_81, "holder", func(w *exec.Thread) {
		w.LockAt(site_extras_82, m)
		v := w.ReadAt(site_extras_83, shared)
		w.YieldAt(site_extras_84)
		w.WriteAt(site_extras_85, shared, v+10)
		w.UnlockAt(site_extras_86, m)
	})
	opportunist := t.GoAt(site_extras_88, "opportunist", func(w *exec.Thread) {
		if w.TryLockAt(site_extras_89, m) {
			v := w.ReadAt(site_extras_90, shared)
			w.WriteAt(site_extras_91, shared, v+1)
			w.UnlockAt(site_extras_92, m)
			return
		}
		// BUG: lock busy — update anyway.
		v := w.ReadAt(site_extras_96, shared)
		w.WriteAt(site_extras_97, shared, v+1)
	})
	t.JoinAllAt(site_extras_99, holder, opportunist)
	t.AssertfAt(site_extras_100, t.ReadAt(site_extras_100, shared) == 11, "fallback path lost an update: %d/11", t.ReadAt(site_extras_100, shared))
}

// barrierPhaseLeakProgram: a stale phase-guard lets one worker run ahead.
func barrierPhaseLeakProgram(t *exec.Thread) {
	bar := t.NewBarrierAt(site_extras_105, "phase", 2)
	input := t.NewVarAt(site_extras_106, "input", 1)
	phase := t.NewVarAt(site_extras_107, "phase_no", 0)
	fast := t.GoAt(site_extras_108, "fast", func(w *exec.Thread) {
		if w.ReadAt(site_extras_109, phase) == 0 {
			// BUG: believes phase 0 is still running and "pre-stages"
			// phase 1 input early.
			w.WriteAt(site_extras_112, input, 2)
		}
		w.BarrierWaitAt(site_extras_114, bar)
	})
	slow := t.GoAt(site_extras_116, "slow", func(w *exec.Thread) {
		v := w.ReadAt(site_extras_117, input) // phase-0 computation
		w.WriteAt(site_extras_118, phase, 1)
		w.BarrierWaitAt(site_extras_119, bar)
		w.AssertfAt(site_extras_120, v == 1, "phase-0 read saw phase-1 input: %d", v)
	})
	t.JoinAllAt(site_extras_122, fast, slow)
}
