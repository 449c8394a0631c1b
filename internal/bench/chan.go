package bench

import (
	"rff/internal/exec"
)

// The Chan suite exercises the engine's channel and WaitGroup vocabulary
// with the classic Go concurrency shapes: producer/consumer handoffs,
// select fan-in, close races, and WaitGroup joins. The buggy variants
// plant the channel-specific failure kinds (send-on-closed, close-of-
// closed, channel deadlock) reachable only on some interleavings, so the
// suite doubles as the regression surface for channel-aware scheduling.

func init() {
	register(Program{
		Name: "Chan/prodcons", Suite: "Chan", Bug: BugNone, Threads: 3,
		Desc: "two producers hand five values each to a consumer over a capacity-2 channel; the consumer sums and main asserts the total",
		Body: prodconsProgram,
	})
	register(Program{
		Name: "Chan/fanin_select", Suite: "Chan", Bug: BugNone, Threads: 3,
		Desc: "two producers on distinct rendezvous channels, a consumer selecting over both; every interleaving must deliver all values",
		Body: faninSelectProgram,
	})
	register(Program{
		Name: "Chan/close_race", Suite: "Chan", Bug: BugAssert, Threads: 3,
		Desc: "a producer sends while a closer closes the same channel: schedules that close first crash with send-on-closed",
		Body: closeRaceProgram,
	})
	register(Program{
		Name: "Chan/double_close", Suite: "Chan", Bug: BugAssert, Threads: 3,
		Desc: "two workers close the same channel behind a racy guard flag: both observing the flag unset crashes with close-of-closed",
		Body: doubleCloseProgram,
	})
	register(Program{
		Name: "Chan/missing_recv", Suite: "Chan", Bug: BugDeadlock, Threads: 3,
		Desc: "consumer drains a rendezvous channel as many times as a racy counter says producers sent; an undercount leaves a producer blocked forever",
		Body: missingRecvProgram,
	})
	register(Program{
		Name: "Chan/wg_pipeline", Suite: "Chan", Bug: BugNone, Threads: 3,
		Desc: "workers publish results into a buffered channel and signal a WaitGroup; main waits, drains, and asserts the sum",
		Body: wgPipelineProgram,
	})
}

// prodconsProgram: two producers, one consumer, buffered channel.
func prodconsProgram(t *exec.Thread) {
	ch := t.NewChanAt(site_chan_49, "ch", 2)
	total := t.NewVarAt(site_chan_50, "total", 0)
	producer := func(base int64) exec.Program {
		return func(w *exec.Thread) {
			for i := int64(0); i < 5; i++ {
				w.SendAt(site_chan_54, ch, base+i)
			}
		}
	}
	p1 := t.GoAt(site_chan_58, "p1", producer(1))
	p2 := t.GoAt(site_chan_59, "p2", producer(100))
	c := t.GoAt(site_chan_60, "c", func(w *exec.Thread) {
		var sum int64
		for i := 0; i < 10; i++ {
			v, ok := w.RecvAt(site_chan_63, ch)
			w.AssertAt(site_chan_64, ok, "channel closed early")
			sum += v
		}
		w.WriteAt(site_chan_67, total, sum)
	})
	t.JoinAllAt(site_chan_69, p1, p2, c)
	// 1+2+3+4+5 + 100+101+102+103+104 = 15 + 510
	t.AssertfAt(site_chan_71, t.ReadAt(site_chan_71, total) == 525, "total %d, want 525", t.ReadAt(site_chan_71, total))
}

// faninSelectProgram: select over two rendezvous channels.
func faninSelectProgram(t *exec.Thread) {
	a := t.NewChanAt(site_chan_76, "a", 0)
	b := t.NewChanAt(site_chan_77, "b", 0)
	total := t.NewVarAt(site_chan_78, "total", 0)
	p1 := t.GoAt(site_chan_79, "p1", func(w *exec.Thread) {
		w.SendAt(site_chan_80, a, 1)
		w.SendAt(site_chan_81, a, 2)
	})
	p2 := t.GoAt(site_chan_83, "p2", func(w *exec.Thread) {
		w.SendAt(site_chan_84, b, 10)
		w.SendAt(site_chan_85, b, 20)
	})
	c := t.GoAt(site_chan_87, "c", func(w *exec.Thread) {
		var sum int64
		for i := 0; i < 4; i++ {
			_, v, ok := w.SelectAt(site_chan_90, exec.RecvCase(a), exec.RecvCase(b))
			w.AssertAt(site_chan_91, ok, "fan-in receive failed")
			sum += v
		}
		w.WriteAt(site_chan_94, total, sum)
	})
	t.JoinAllAt(site_chan_96, p1, p2, c)
	t.AssertfAt(site_chan_97, t.ReadAt(site_chan_97, total) == 33, "total %d, want 33", t.ReadAt(site_chan_97, total))
}

// closeRaceProgram: send racing a close — the channel-native analogue of
// the classic use-after-free shape.
func closeRaceProgram(t *exec.Thread) {
	ch := t.NewChanAt(site_chan_103, "ch", 1)
	p := t.GoAt(site_chan_104, "p", func(w *exec.Thread) {
		w.SendAt(site_chan_105, ch, 1) // crashes when the closer won the race
	})
	k := t.GoAt(site_chan_107, "k", func(w *exec.Thread) {
		w.CloseAt(site_chan_108, ch)
	})
	c := t.GoAt(site_chan_110, "c", func(w *exec.Thread) {
		w.TryRecvAt(site_chan_111, ch)
	})
	t.JoinAllAt(site_chan_113, p, k, c)
}

// doubleCloseProgram: a racy closed-flag check guards close, so two
// threads can both decide to close — close-of-closed on those schedules.
func doubleCloseProgram(t *exec.Thread) {
	ch := t.NewChanAt(site_chan_119, "ch", 1)
	flag := t.NewVarAt(site_chan_120, "flag", 0)
	closer := func(w *exec.Thread) {
		if w.ReadAt(site_chan_122, flag) == 0 {
			w.WriteAt(site_chan_123, flag, 1)
			w.CloseAt(site_chan_124, ch)
		}
	}
	a := t.GoAt(site_chan_127, "a", closer)
	b := t.GoAt(site_chan_128, "b", closer)
	c := t.GoAt(site_chan_129, "c", func(w *exec.Thread) {
		w.TryRecvAt(site_chan_130, ch)
	})
	t.JoinAllAt(site_chan_132, a, b, c)
}

// missingRecvProgram: the consumer decides how many values to drain from
// a racy non-atomic counter; reading it before the last producer bumps
// it strands that producer on a rendezvous send forever.
func missingRecvProgram(t *exec.Thread) {
	ch := t.NewChanAt(site_chan_139, "ch", 0)
	n := t.NewVarAt(site_chan_140, "n", 0)
	producer := func(w *exec.Thread) {
		w.AddAt(site_chan_142, n, 1) // non-atomic: read and write are separate steps
		w.SendAt(site_chan_143, ch, 1)
	}
	p1 := t.GoAt(site_chan_145, "p1", producer)
	p2 := t.GoAt(site_chan_146, "p2", producer)
	c := t.GoAt(site_chan_147, "c", func(w *exec.Thread) {
		k := w.ReadAt(site_chan_148, n)
		for i := int64(0); i < k; i++ {
			w.RecvAt(site_chan_150, ch)
		}
	})
	t.JoinAllAt(site_chan_153, p1, p2, c)
}

// wgPipelineProgram: WaitGroup-gated drain of a buffered results channel.
func wgPipelineProgram(t *exec.Thread) {
	ch := t.NewChanAt(site_chan_158, "ch", 2)
	wg := t.NewWaitGroupAt(site_chan_159, "wg")
	t.WgAddAt(site_chan_160, wg, 2)
	worker := func(v int64) exec.Program {
		return func(w *exec.Thread) {
			w.SendAt(site_chan_163, ch, v)
			w.WgDoneAt(site_chan_164, wg)
		}
	}
	a := t.GoAt(site_chan_167, "a", worker(3))
	b := t.GoAt(site_chan_168, "b", worker(4))
	t.WgWaitAt(site_chan_169, wg)
	// Both sends happen-before the waits' return: the buffer holds both.
	v1, _ := t.RecvAt(site_chan_171, ch)
	v2, _ := t.RecvAt(site_chan_172, ch)
	t.AssertfAt(site_chan_173, v1+v2 == 7, "sum %d, want 7", v1+v2)
	t.JoinAllAt(site_chan_174, a, b)
}
