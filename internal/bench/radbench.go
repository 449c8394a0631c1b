package bench

import "rff/internal/exec"

// The RADBench suite ports the three RADBench browser bugs SCTBench uses:
// two deep SpiderMonkey races (bug4, bug5) and a Chromium condition-
// variable deadlock (bug6). bug4 and especially bug5 are among the hardest
// subjects in the paper's table — bug5 is found by no tool in any trial.

func init() {
	register(Program{
		Name: "RADBench/bug4", Suite: "RADBench", Bug: BugMemory, Threads: 3,
		Desc: "SpiderMonkey atomize race: two threads insert the same atom while the GC sweeps the table; needs a three-way ordering chain",
		Body: radBug4Program,
	})
	register(Program{
		Name: "RADBench/bug5", Suite: "RADBench", Bug: BugAssert, Threads: 3,
		Desc: "SpiderMonkey request-depth race requiring a six-step ordering chain across three threads; no evaluated tool finds it",
		Body: radBug5Program,
	})
	register(Program{
		Name: "RADBench/bug6", Suite: "RADBench", Bug: BugDeadlock, Threads: 2,
		Desc: "Chromium watchdog: the disarm signal can fire between the watcher's check and wait, hanging the watcher forever",
		Body: radBug6Program,
	})
}

// radBug4Program: check-insert-sweep chain across three threads.
func radBug4Program(t *exec.Thread) {
	table := t.NewVarAt(site_radbench_30, "atom_table", 0) // 0 empty, 1 inserted
	pinned := t.NewVarAt(site_radbench_31, "pinned", 0)
	atom := NewObj(t, "atom")

	atomizeA := t.GoAt(site_radbench_34, "atomizeA", func(w *exec.Thread) {
		if w.ReadAt(site_radbench_35, table) == 0 {
			w.WriteAt(site_radbench_36, table, 1) // insert the atom
			w.WriteAt(site_radbench_37, pinned, 1)
		}
		atom.Use(w)
	})
	atomizeB := t.GoAt(site_radbench_41, "atomizeB", func(w *exec.Thread) {
		if w.ReadAt(site_radbench_42, table) == 0 {
			// Double insert: both threads saw the table empty. The
			// second insert unpins the first thread's atom.
			w.WriteAt(site_radbench_45, table, 1)
			w.WriteAt(site_radbench_46, pinned, 0)
		}
		atom.Use(w)
	})
	gc := t.GoAt(site_radbench_50, "gc_sweep", func(w *exec.Thread) {
		if w.ReadAt(site_radbench_51, table) == 1 && w.ReadAt(site_radbench_51, pinned) == 0 {
			atom.FreeUnchecked(w) // sweep the unpinned atom
		}
	})
	t.JoinAllAt(site_radbench_55, atomizeA, atomizeB, gc)
}

// radBug5Program: the failure requires a perfect 16-step request/GC
// alternation on the depth counter — the same pair of abstract events
// must hand off correctly at every loop iteration, a *temporal* pattern a
// single set of reads-from constraints cannot pin down (RFF's positive
// constraints are existential and retire after one satisfaction). Every
// mis-step bails out silently. This mirrors the paper's bug5 row, which
// no evaluated tool exposes in any trial.
func radBug5Program(t *exec.Thread) {
	const rounds = 8
	depth := t.NewVarAt(site_radbench_67, "request_depth", 0)
	done := t.NewVarAt(site_radbench_68, "gc_done", 0)

	requester := t.GoAt(site_radbench_70, "requester", func(w *exec.Thread) {
		for i := int64(0); i < rounds; i++ {
			if w.ReadAt(site_radbench_72, depth) != 2*i {
				return // GC fell behind or raced ahead: normal path
			}
			w.WriteAt(site_radbench_75, depth, 2*i+1)
		}
		// Perfect alternation survived: the request outran every GC
		// acknowledgement. If the GC has not finished either, the
		// original deadlocks on the request depth — modelled as the
		// assertion below.
		w.AssertAt(site_radbench_81, w.ReadAt(site_radbench_81, done) != 0, "request depth corrupted after full alternation")
	})
	gc := t.GoAt(site_radbench_83, "gc", func(w *exec.Thread) {
		for i := int64(0); i < rounds; i++ {
			if w.ReadAt(site_radbench_85, depth) != 2*i+1 {
				return
			}
			w.WriteAt(site_radbench_88, depth, 2*i+2)
		}
		w.WriteAt(site_radbench_90, done, 1)
	})
	helper := t.GoAt(site_radbench_92, "helper", func(w *exec.Thread) {
		// The helper only observes; its reads enrich the reads-from
		// space without participating in the failure.
		w.ReadAt(site_radbench_95, depth)
		w.ReadAt(site_radbench_96, done)
		w.ReadAt(site_radbench_97, depth)
	})
	t.JoinAllAt(site_radbench_99, requester, gc, helper)
}

// radBug6Program: watchdog disarm signal lost between check and wait.
func radBug6Program(t *exec.Thread) {
	m := t.NewMutexAt(site_radbench_104, "watchdog_lock")
	cv := t.NewCondAt(site_radbench_105, "watchdog_cv", m)
	armed := t.NewVarAt(site_radbench_106, "armed", 1)

	watcher := t.GoAt(site_radbench_108, "watcher", func(w *exec.Thread) {
		// BUG: the armed check happens before taking the lock, so the
		// disarm signal can fire in the gap.
		if w.ReadAt(site_radbench_111, armed) == 1 {
			w.LockAt(site_radbench_112, m)
			w.WaitAt(site_radbench_113, cv)
			w.UnlockAt(site_radbench_114, m)
		}
	})
	disarmer := t.GoAt(site_radbench_117, "disarmer", func(w *exec.Thread) {
		w.WriteAt(site_radbench_118, armed, 0)
		w.LockAt(site_radbench_119, m)
		w.SignalAt(site_radbench_120, cv)
		w.UnlockAt(site_radbench_121, m)
	})
	t.JoinAllAt(site_radbench_123, watcher, disarmer)
}
