//go:build go1.23

package exec

import (
	"iter"
	"sync"
)

// maxIdleCarriers caps the process-wide idle carrier list. It covers the
// widest common load, two shards of a 101-thread program, so steady-state
// campaigns never build a fresh coroutine; carriers released above the cap
// are stopped instead.
const maxIdleCarriers = 256

// A carrier is a coroutine (iter.Pull) that hosts virtual threads, one at
// a time: its loop runs the assigned thread's body to completion, then
// yields idle until it is handed the next thread. Thread.park suspends the
// carrier with yield and Engine.resume switches back into it with next,
// so a scheduling step is a direct coroutine switch with no channel and
// no run-queue trip. Building an iter.Pull costs 13 allocations and
// switching one none, so exited threads return their carrier to a
// process-wide idle list that any engine draws from.
type carrier struct {
	th    *Thread // thread being hosted; nil while idle
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// goexited marks a carrier whose thread body called runtime.Goexit:
	// it is suspended mid-unwind and must never host another thread.
	goexited bool
}

var carriers struct {
	sync.Mutex
	idle []*carrier
}

// acquireCarrier takes an idle carrier (or builds one) and assigns it th.
// The thread body starts at the engine's next call to th.car.next.
func acquireCarrier(th *Thread) *carrier {
	carriers.Lock()
	var c *carrier
	if n := len(carriers.idle); n > 0 {
		c = carriers.idle[n-1]
		carriers.idle[n-1] = nil
		carriers.idle = carriers.idle[:n-1]
	}
	carriers.Unlock()
	if c == nil {
		c = &carrier{}
		c.next, c.stop = iter.Pull(c.loop)
	}
	c.th = th
	return c
}

// releaseCarrier returns an idle carrier to the list, or stops it when
// the list is full. A Goexit-poisoned carrier is stopped on a throwaway
// goroutine: stopping resumes the Goexit, which iter.Pull re-raises in the
// caller of stop, so that goroutine — not the engine's — is the one that
// exits.
func releaseCarrier(c *carrier) {
	if c.goexited {
		go c.stop()
		return
	}
	carriers.Lock()
	if len(carriers.idle) < maxIdleCarriers {
		carriers.idle = append(carriers.idle, c)
		c = nil
	}
	carriers.Unlock()
	if c != nil {
		c.stop()
	}
}

func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.th.run()
		c.th = nil // an idle carrier must not pin a finished engine
		if !yield(struct{}{}) {
			return
		}
	}
}
