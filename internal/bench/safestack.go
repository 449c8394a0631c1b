package bench

import "rff/internal/exec"

// SafeStack is the hardest subject in the paper's evaluation: the
// lock-free index stack from RADBench (originating in a ThreadSanitizer
// test by Dmitry Vyukov). Its ABA bug needs three threads and a long,
// precise interleaving; no evaluated tool exposes it within the time
// budget. The paper uses it for the Figure 5 exploration-evenness
// experiment because its CAS loops generate a rich space of reads-from
// combinations.

func init() {
	register(Program{
		Name: "SafeStack", Suite: "SafeStack", Bug: BugNone, Threads: 3,
		Desc: "lock-free index stack with an ABA window between reading head->next and the CAS; three threads pop/push concurrently",
		Body: safeStackProgram,
	})
}

// safeStackProgram implements the SafeStack algorithm over engine vars:
// head holds the index of the top node, next[i] links node i to its
// successor, count tracks occupancy. Pop reads head and next[head], then
// CASes head to the successor — the unprotected gap between the next read
// and the CAS is the ABA window.
func safeStackProgram(t *exec.Thread) {
	const n = 6
	head := t.NewVarAt(site_safestack_28, "head", 0)
	count := t.NewVarAt(site_safestack_29, "count", n)
	next := t.NewVarsAt(site_safestack_30, "next", n, 0)
	owned := t.NewVarsAt(site_safestack_31, "owned", n, 0) // oracle: at most one owner per node
	for i := 0; i < n; i++ {
		if i == n-1 {
			t.WriteAt(site_safestack_34, next[i], -1)
		} else {
			t.WriteAt(site_safestack_36, next[i], int64(i+1))
		}
	}

	pop := func(w *exec.Thread) int64 {
		for spin := 0; spin < 4; spin++ {
			if w.ReadAt(site_safestack_42, count) <= 1 {
				return -1
			}
			h := w.ReadAt(site_safestack_45, head)
			if h < 0 {
				return -1
			}
			nx := w.ReadAt(site_safestack_49, next[h]) // ABA window opens here
			if _, ok := w.CASAt(site_safestack_50, head, h, nx); ok {
				w.AtomicAddAt(site_safestack_51, count, -1)
				return h
			}
			w.YieldAt(site_safestack_54)
		}
		return -1
	}
	push := func(w *exec.Thread, idx int64) {
		for spin := 0; spin < 6; spin++ {
			h := w.ReadAt(site_safestack_60, head)
			w.WriteAt(site_safestack_61, next[idx], h)
			if _, ok := w.CASAt(site_safestack_62, head, h, idx); ok {
				w.AtomicAddAt(site_safestack_63, count, 1)
				return
			}
			w.YieldAt(site_safestack_66)
		}
	}

	worker := func(w *exec.Thread) {
		for round := 0; round < 3; round++ {
			idx := pop(w)
			if idx < 0 {
				w.YieldAt(site_safestack_74)
				continue
			}
			// Oracle: an ABA-corrupted CAS hands the same node to two
			// threads.
			prev := w.AtomicAddAt(site_safestack_79, owned[idx], 1)
			w.AssertfAt(site_safestack_80, prev == 0, "node %d popped by two threads (ABA)", idx)
			w.AtomicAddAt(site_safestack_81, owned[idx], -1)
			push(w, idx)
		}
	}
	a := t.GoAt(site_safestack_85, "w0", worker)
	b := t.GoAt(site_safestack_86, "w1", worker)
	c := t.GoAt(site_safestack_87, "w2", worker)
	t.JoinAllAt(site_safestack_88, a, b, c)
}
