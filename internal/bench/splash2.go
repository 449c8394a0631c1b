package bench

import "rff/internal/exec"

// The Splash2 suite ports the three SPLASH-2 kernels SCTBench retains
// (barnes, fft, lu) down to the shared accesses carrying each harness's
// planted assertion: global reductions and tree updates performed with
// missing or wrong-scope locking.

func init() {
	register(Program{
		Name: "Splash2/barnes", Suite: "Splash2", Bug: BugAssert, Threads: 3,
		Desc: "tree-cell body counter updated by three builders with a read-modify-write race under a cell lock taken too late",
		Body: barnesProgram,
	})
	register(Program{
		Name: "Splash2/fft", Suite: "Splash2", Bug: BugAssert, Threads: 2,
		Desc: "the transpose-phase checksum is accumulated without the global lock: a lost update breaks the final checksum",
		Body: fftProgram,
	})
	register(Program{
		Name: "Splash2/lu", Suite: "Splash2", Bug: BugAssert, Threads: 2,
		Desc: "the pivot column counter races between the factor and update phases",
		Body: luProgram,
	})
}

// barnesProgram: late lock acquisition around a tree-cell update.
func barnesProgram(t *exec.Thread) {
	cellBodies := t.NewVarAt(site_splash2_30, "cell.bodies", 0)
	cellLock := t.NewMutexAt(site_splash2_31, "cell.lock")
	builder := func(w *exec.Thread) {
		// The original reads the cell state before deciding whether to
		// lock, so the read races with other builders' updates.
		n := w.ReadAt(site_splash2_35, cellBodies)
		w.LockAt(site_splash2_36, cellLock)
		w.WriteAt(site_splash2_37, cellBodies, n+1)
		w.UnlockAt(site_splash2_38, cellLock)
	}
	a := t.GoAt(site_splash2_40, "builder0", builder)
	b := t.GoAt(site_splash2_41, "builder1", builder)
	c := t.GoAt(site_splash2_42, "builder2", builder)
	t.JoinAllAt(site_splash2_43, a, b, c)
	t.AssertfAt(site_splash2_44, t.ReadAt(site_splash2_44, cellBodies) == 3, "bodies lost in tree build: %d/3", t.ReadAt(site_splash2_44, cellBodies))
}

// fftProgram: the transpose phase is barrier-separated, but worker 0
// reads its partner's partial sum before reaching the barrier (the
// code-motion bug) — under the wrong interleaving it folds a zero into
// the checksum.
func fftProgram(t *exec.Thread) {
	bar := t.NewBarrierAt(site_splash2_52, "transpose", 2)
	partial := t.NewVarsAt(site_splash2_53, "partial", 2, 0)
	worker := func(self, other int, val int64) exec.Program {
		return func(w *exec.Thread) {
			w.WriteAt(site_splash2_56, partial[self], val)
			if self == 0 {
				// BUG: reads the partner's partial before the barrier.
				sum := w.ReadAt(site_splash2_59, partial[0]) + w.ReadAt(site_splash2_59, partial[other])
				w.BarrierWaitAt(site_splash2_60, bar)
				w.AssertfAt(site_splash2_61, sum == 8, "transpose checksum mismatch: %d/8", sum)
				return
			}
			w.BarrierWaitAt(site_splash2_64, bar)
		}
	}
	a := t.GoAt(site_splash2_67, "fft0", worker(0, 1, 3))
	b := t.GoAt(site_splash2_68, "fft1", worker(1, 0, 5))
	t.JoinAllAt(site_splash2_69, a, b)
}

// luProgram: pivot counter raced between phases.
func luProgram(t *exec.Thread) {
	pivot := t.NewVarAt(site_splash2_74, "pivot", 0)
	done := t.NewVarAt(site_splash2_75, "done", 0)
	factor := t.GoAt(site_splash2_76, "factor", func(w *exec.Thread) {
		p := w.ReadAt(site_splash2_77, pivot)
		w.WriteAt(site_splash2_78, pivot, p+1)
		w.WriteAt(site_splash2_79, done, 1)
	})
	update := t.GoAt(site_splash2_81, "update", func(w *exec.Thread) {
		if w.ReadAt(site_splash2_82, done) == 1 {
			return // factorization finished; nothing to race with
		}
		// Race ahead of the factor phase and bump the pivot (the bug:
		// the phases were meant to be barrier-separated).
		p := w.ReadAt(site_splash2_87, pivot)
		w.WriteAt(site_splash2_88, pivot, p+1)
		w.AssertfAt(site_splash2_89, w.ReadAt(site_splash2_89, pivot) == p+1, "factor phase raced the update: pivot %d, expected %d",
			w.ReadAt(site_splash2_90, pivot), p+1)
	})
	t.JoinAllAt(site_splash2_92, factor, update)
}
