package bench

import "rff/internal/exec"

// The CB suite ports SCTBench's "concurrency bugs" applications: the aget
// downloader, the pbzip2 parallel compressor, and the JDK 1.4 StringBuffer
// — thousand-line production programs in the original, distilled here to
// the threads and shared accesses that participate in each bug.

func init() {
	register(Program{
		Name: "CB/aget-bug2", Suite: "CB", Bug: BugAssert, Threads: 2,
		Desc: "two download threads bump the shared bytes-written counter without the lock; the progress accounting loses an update",
		Body: agetBug2Program,
	})
	register(Program{
		Name: "CB/pbzip2-0.9.4", Suite: "CB", Bug: BugDeadlock, Threads: 2,
		Desc: "the consumer checks fifo->empty outside the mutex: the producer's only signal can fire before the consumer waits, deadlocking the pipeline",
		Body: pbzip2Program,
	})
	register(Program{
		Name: "CB/stringbuffer-jdk1.4", Suite: "CB", Bug: BugAssert, Threads: 2,
		Desc: "StringBuffer.getChars samples the length, then copies after a concurrent delete shrank the buffer (JDK 1.4 race)",
		Body: stringBufferProgram,
	})
}

// agetBug2Program: unsynchronized progress counter updates.
func agetBug2Program(t *exec.Thread) {
	bwritten := t.NewVarAt(site_cb_30, "bwritten", 0)
	lock := t.NewMutexAt(site_cb_31, "bwritten_mutex")
	dl := func(chunk int64) exec.Program {
		return func(w *exec.Thread) {
			// The original takes the lock for the history array but
			// updates bwritten outside it.
			w.LockAt(site_cb_36, lock)
			w.UnlockAt(site_cb_37, lock)
			b := w.ReadAt(site_cb_38, bwritten)
			w.WriteAt(site_cb_39, bwritten, b+chunk)
		}
	}
	a := t.GoAt(site_cb_42, "http_get_0", dl(100))
	b := t.GoAt(site_cb_43, "http_get_1", dl(50))
	t.JoinAllAt(site_cb_44, a, b)
	t.AssertfAt(site_cb_45, t.ReadAt(site_cb_45, bwritten) == 150, "progress lost: %d/150 bytes accounted", t.ReadAt(site_cb_45, bwritten))
}

// pbzip2Program: lost-wakeup pipeline shutdown.
func pbzip2Program(t *exec.Thread) {
	m := t.NewMutexAt(site_cb_50, "fifo_mut")
	notEmpty := t.NewCondAt(site_cb_51, "notEmpty", m)
	empty := t.NewVarAt(site_cb_52, "fifo_empty", 1)
	blocks := t.NewVarAt(site_cb_53, "blocks", 0)

	consumer := t.GoAt(site_cb_55, "consumer", func(w *exec.Thread) {
		// BUG: the emptiness check happens without holding fifo_mut.
		if w.ReadAt(site_cb_57, empty) == 1 {
			w.LockAt(site_cb_58, m)
			w.WaitAt(site_cb_59, notEmpty) // the producer's signal may already be gone
			w.UnlockAt(site_cb_60, m)
		}
		w.LockAt(site_cb_62, m)
		b := w.ReadAt(site_cb_63, blocks)
		w.WriteAt(site_cb_64, blocks, b-1)
		w.UnlockAt(site_cb_65, m)
	})
	producer := t.GoAt(site_cb_67, "producer", func(w *exec.Thread) {
		w.LockAt(site_cb_68, m)
		b := w.ReadAt(site_cb_69, blocks)
		w.WriteAt(site_cb_70, blocks, b+1)
		w.WriteAt(site_cb_71, empty, 0)
		w.SignalAt(site_cb_72, notEmpty) // fires exactly once
		w.UnlockAt(site_cb_73, m)
	})
	t.JoinAllAt(site_cb_75, consumer, producer)
}

// stringBufferProgram: length sampled before a racing delete.
func stringBufferProgram(t *exec.Thread) {
	length := t.NewVarAt(site_cb_80, "sb.count", 4)
	lock := t.NewMutexAt(site_cb_81, "sb.lock")

	getChars := t.GoAt(site_cb_83, "getChars", func(w *exec.Thread) {
		// getChars is NOT synchronized in JDK 1.4: it samples count...
		n := w.ReadAt(site_cb_85, length)
		// ... prepares the destination ...
		w.YieldAt(site_cb_87)
		// ... and copies; by now a synchronized delete may have shrunk
		// the buffer, making the copy read out of bounds.
		cur := w.ReadAt(site_cb_90, length)
		w.AssertfAt(site_cb_91, n <= cur, "ArrayIndexOutOfBounds: copying %d chars from a %d-char buffer", n, cur)
	})
	deleter := t.GoAt(site_cb_93, "delete", func(w *exec.Thread) {
		w.LockAt(site_cb_94, lock)
		n := w.ReadAt(site_cb_95, length)
		if n >= 4 {
			w.WriteAt(site_cb_97, length, n-4)
		}
		w.UnlockAt(site_cb_99, lock)
	})
	t.JoinAllAt(site_cb_101, getChars, deleter)
}
