package bench

import "rff/internal/exec"

// The ConVul suite distills the ten real-world CVEs of the ConVul
// benchmark (Cai et al.) to their racy access cores: check-then-use null
// dereferences, get/put refcount races, revoke-vs-read use-after-frees and
// guard-flag double frees. Each program keeps the original's thread
// structure and the interleaving window that triggers the crash; the
// simulated heap (memsim.go) provides the crash oracle.

func init() {
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2009-3547", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "pipe release NULLs inode->i_pipe between another thread's check and dereference",
		Body: cve20093547,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2011-2183", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "ksm scan uses an mm_struct while the exiting task frees it after the liveness check",
		Body: cve20112183,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2013-1792", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "keyring shadow-cred race: reader samples the refcount, the exiting thread drops the last reference, the reader resurrects and uses the freed creds",
		Body: cve20131792,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2015-7550", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "keyctl_read checks the key under lock, drops the lock, then reads the payload the revoker freed",
		Body: cve20157550,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2016-1972", Suite: "ConVul", Bug: BugMemory, Threads: 3,
		Desc: "Mozilla buffer-swap race: a reader resolves the current buffer index while a rotator retires and frees the buffer it is about to use, behind a second guard",
		Body: cve20161972,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2016-1973", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "Mozilla graphics UAF: the compositor frees a texture the painter is still addressing",
		Body: cve20161973,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2016-7911", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "ioprio get/put race on a non-atomic refcount frees the io_context under a concurrent getter",
		Body: cve20167911,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2016-9806", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "netlink double bind: both paths see the socket unbound and both free the old group table",
		Body: cve20169806,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2017-15265", Suite: "ConVul", Bug: BugMemory, Threads: 3,
		Desc: "ALSA sequencer: port creation publishes to the client table before init completes while a deleter frees it through the table",
		Body: cve201715265,
	})
	register(Program{
		Name: "ConVul-CVE-Benchmarks/CVE-2017-6346", Suite: "ConVul", Bug: BugMemory, Threads: 2,
		Desc: "packet fanout: setsockopt frees the ring while a racing sender still transmits through it",
		Body: cve20176346,
	})
}

// cve20093547: check-then-dereference against a concurrent NULLing close.
func cve20093547(t *exec.Thread) {
	pipe := NewObj(t, "i_pipe")
	reader := t.GoAt(site_convul_68, "pipe_read_open", func(w *exec.Thread) {
		if !pipe.Alive(w) {
			return // already closed
		}
		// ... lock-free fast path continues with the cached pointer ...
		pipe.Use(w) // crashes if the closer won the race
	})
	closer := t.GoAt(site_convul_75, "pipe_release", func(w *exec.Thread) {
		w.WriteAt(site_convul_76, pipe.state, objNull) // inode->i_pipe = NULL
	})
	t.JoinAllAt(site_convul_78, reader, closer)
}

// cve20112183: liveness check under lock, use after dropping it.
func cve20112183(t *exec.Thread) {
	mm := NewObj(t, "mm_struct")
	lock := t.NewMutexAt(site_convul_84, "ksm_lock")
	scanner := t.GoAt(site_convul_85, "ksm_scan", func(w *exec.Thread) {
		w.LockAt(site_convul_86, lock)
		alive := mm.Alive(w)
		w.UnlockAt(site_convul_88, lock)
		if !alive {
			return
		}
		mm.Use(w) // the exiting task may free between unlock and here
	})
	exiter := t.GoAt(site_convul_94, "exit_mm", func(w *exec.Thread) {
		w.LockAt(site_convul_95, lock)
		w.UnlockAt(site_convul_96, lock)
		mm.Free(w)
	})
	t.JoinAllAt(site_convul_99, scanner, exiter)
}

// cve20131792: refcount sample → drop-to-zero free → resurrecting get →
// use. Needs three orderings to line up, making it markedly harder than
// the two-step races.
func cve20131792(t *exec.Thread) {
	cred := NewObj(t, "cred")
	rc := NewRefcount(t, "cred", 1, cred)
	installed := t.NewVarAt(site_convul_108, "installed", 0)

	reader := t.GoAt(site_convul_110, "key_read", func(w *exec.Thread) {
		if rc.Count(w) <= 0 {
			return // creds already gone
		}
		if w.ReadAt(site_convul_114, installed) == 0 {
			w.YieldAt(site_convul_115) // wait for installation to settle (racy)
		}
		rc.Get(w) // resurrection after free: the bug's first half
		cred.Use(w)
		rc.Put(w)
	})
	exiter := t.GoAt(site_convul_121, "task_exit", func(w *exec.Thread) {
		w.WriteAt(site_convul_122, installed, 1)
		rc.Put(w) // drops the last legitimate reference
	})
	t.JoinAllAt(site_convul_125, reader, exiter)
}

// cve20157550: locked check, unlocked payload read vs. revoke.
func cve20157550(t *exec.Thread) {
	key := NewObj(t, "key")
	sem := t.NewMutexAt(site_convul_131, "key_sem")
	reader := t.GoAt(site_convul_132, "keyctl_read", func(w *exec.Thread) {
		w.LockAt(site_convul_133, sem)
		alive := key.Alive(w)
		w.UnlockAt(site_convul_135, sem)
		if !alive {
			return
		}
		key.Use(w) // payload read outside the semaphore
	})
	revoker := t.GoAt(site_convul_141, "keyctl_revoke", func(w *exec.Thread) {
		w.LockAt(site_convul_142, sem)
		key.Free(w)
		w.UnlockAt(site_convul_144, sem)
	})
	t.JoinAllAt(site_convul_146, reader, revoker)
}

// cve20161972: three threads; the reader must resolve the index before the
// rotator swaps AND dereference after the retirer frees — a deeper window
// that plain sampling rarely hits.
func cve20161972(t *exec.Thread) {
	bufA := NewObj(t, "bufA")
	bufB := NewObj(t, "bufB")
	current := t.NewVarAt(site_convul_155, "current", 0) // 0 -> bufA, 1 -> bufB
	retired := t.NewVarAt(site_convul_156, "retired", 0)

	reader := t.GoAt(site_convul_158, "reader", func(w *exec.Thread) {
		idx := w.ReadAt(site_convul_159, current)
		buf := bufA
		if idx == 1 {
			buf = bufB
		}
		if w.ReadAt(site_convul_164, retired) != 0 && !buf.Alive(w) {
			return // noticed the rotation in time
		}
		buf.Use(w)
	})
	rotator := t.GoAt(site_convul_169, "rotator", func(w *exec.Thread) {
		w.WriteAt(site_convul_170, current, 1)
		w.WriteAt(site_convul_171, retired, 1)
	})
	retirer := t.GoAt(site_convul_173, "retirer", func(w *exec.Thread) {
		if w.ReadAt(site_convul_174, retired) != 0 {
			bufA.Free(w)
		}
	})
	t.JoinAllAt(site_convul_178, reader, rotator, retirer)
}

// cve20161973: straightforward free-under-use between two threads.
func cve20161973(t *exec.Thread) {
	tex := NewObj(t, "texture")
	painter := t.GoAt(site_convul_184, "painter", func(w *exec.Thread) {
		if !tex.Alive(w) {
			return
		}
		tex.Store(w, 7)
	})
	compositor := t.GoAt(site_convul_190, "compositor", func(w *exec.Thread) {
		tex.Free(w)
	})
	t.JoinAllAt(site_convul_193, painter, compositor)
}

// cve20167911: non-atomic get/put refcount race.
func cve20167911(t *exec.Thread) {
	ioc := NewObj(t, "io_context")
	rc := NewRefcount(t, "ioc", 1, ioc)
	getter := t.GoAt(site_convul_200, "get_task_ioprio", func(w *exec.Thread) {
		if rc.Count(w) <= 0 {
			return
		}
		rc.Get(w) // non-atomic: may resurrect a freed context
		ioc.Use(w)
		rc.Put(w)
	})
	putter := t.GoAt(site_convul_208, "put_io_context", func(w *exec.Thread) {
		rc.Put(w)
	})
	t.JoinAllAt(site_convul_211, getter, putter)
}

// cve20169806: both threads pass the "unbound" guard, both free.
func cve20169806(t *exec.Thread) {
	groups := NewObj(t, "groups")
	bound := t.NewVarAt(site_convul_217, "bound", 0)
	bind := func(w *exec.Thread) {
		if w.ReadAt(site_convul_219, bound) != 0 {
			return // someone already rebound; nothing to free
		}
		w.WriteAt(site_convul_222, bound, 1)
		groups.Free(w) // double free when both saw bound==0
	}
	a := t.GoAt(site_convul_225, "netlink_bind", bind)
	b := t.GoAt(site_convul_226, "netlink_setsockopt", bind)
	t.JoinAllAt(site_convul_227, a, b)
}

// cve201715265: publish-before-init plus a racing deleter; three threads.
func cve201715265(t *exec.Thread) {
	port := NewNullObj(t, "port")
	table := t.NewVarAt(site_convul_233, "client_table", 0)

	creator := t.GoAt(site_convul_235, "create_port", func(w *exec.Thread) {
		w.WriteAt(site_convul_236, table, 1) // publish to the client table (too early)
		port.Alloc(w)                        // initialization completes after publication
	})
	user := t.GoAt(site_convul_239, "use_port", func(w *exec.Thread) {
		if w.ReadAt(site_convul_240, table) == 0 {
			return // not visible yet
		}
		port.Use(w) // crashes if still null or already deleted
	})
	deleter := t.GoAt(site_convul_245, "delete_port", func(w *exec.Thread) {
		if w.ReadAt(site_convul_246, table) != 0 {
			port.FreeUnchecked(w)
		}
	})
	t.JoinAllAt(site_convul_250, creator, user, deleter)
}

// cve20176346: teardown frees the ring under an in-flight sender.
func cve20176346(t *exec.Thread) {
	ring := NewObj(t, "fanout_ring")
	active := t.NewVarAt(site_convul_256, "active", 1)
	sender := t.GoAt(site_convul_257, "packet_send", func(w *exec.Thread) {
		if w.ReadAt(site_convul_258, active) == 0 {
			return
		}
		ring.Use(w)
		ring.Store(w, 1)
	})
	teardown := t.GoAt(site_convul_264, "fanout_release", func(w *exec.Thread) {
		w.WriteAt(site_convul_265, active, 0)
		ring.Free(w)
	})
	t.JoinAllAt(site_convul_268, sender, teardown)
}
