package main

import "time"

// The host this benchmark runs on is a VM on a shared machine, and its
// speed drifts by 10-35% over tens of seconds as its neighbours' load
// changes. A run therefore also times a fixed reference kernel,
// interleaved with its trials, and reports its timings scaled to a host
// on which that kernel runs at refNominalNS per handoff. The kernel is
// the benchmark's own code, so a change to the fuzzer moves the scaled
// timings as much as the raw ones; a change in the host's speed moves
// the kernel's time too and cancels out. README.md gives the evidence.

// refNominalNS is the reference speed: nanoseconds per handoff of the
// reference kernel on the host all timings are scaled to.
const refNominalNS = 1000

// refHandoffs is how many handoffs one reference sample makes; refEvery
// is the timed wall between samples.
const (
	refHandoffs = 400
	refEvery    = 10 * time.Millisecond
)

// refGroup is one driver goroutine handing a turn round-robin to
// refWorkers parked goroutines over unbuffered channels and waiting for
// each to hand it back: the same park/grant pattern as the execution
// engine, in code the fuzzer does not share. It allocates nothing once
// started.
type refGroup struct {
	grants [refWorkers]chan struct{}
	notify chan int
	tally  [4096]uint64
	start  chan int
	done   chan struct{}
}

const refWorkers = 4

func newRefGroup() *refGroup {
	g := &refGroup{notify: make(chan int), start: make(chan int), done: make(chan struct{})}
	for w := range g.grants {
		g.grants[w] = make(chan struct{})
		go func(w int) {
			for range g.grants[w] {
				g.notify <- w
			}
		}(w)
	}
	go func() {
		for n := range g.start {
			g.handoffs(n)
			g.done <- struct{}{}
		}
	}()
	return g
}

func (g *refGroup) handoffs(n int) {
	x := uint64(n)
	for i := 0; i < n; i++ {
		g.grants[i%refWorkers] <- struct{}{}
		x = x*6364136223846793005 + uint64(<-g.notify) + 1
		g.tally[x>>52]++
	}
}

func (g *refGroup) stop() {
	for _, c := range g.grants {
		close(c)
	}
	close(g.start)
}

// refClock measures the reference kernel on as many groups at once as a
// workload drives threads, and accumulates its time per handoff.
type refClock struct {
	groups []*refGroup
	perOp  []float64 // nanoseconds per handoff, one per sample
}

func newRefClock(threads int) *refClock {
	c := &refClock{}
	for range threads {
		c.groups = append(c.groups, newRefGroup())
	}
	return c
}

// sample runs refHandoffs handoffs on every group at once and records
// the wall time per handoff.
func (c *refClock) sample() {
	t := time.Now()
	for _, g := range c.groups {
		g.start <- refHandoffs
	}
	for _, g := range c.groups {
		<-g.done
	}
	c.perOp = append(c.perOp, float64(time.Since(t).Nanoseconds())/refHandoffs)
}

// nsPerHandoff is the kernel's median time per handoff over its samples.
func (c *refClock) nsPerHandoff() float64 {
	return quantile(append([]float64(nil), c.perOp...), 0.5)
}

// scale is how many times slower than the reference host this host ran
// (below 1: faster). A timing divided by scale, or a rate multiplied by
// it, is what the reference host would have measured.
func (c *refClock) scale() float64 { return c.nsPerHandoff() / refNominalNS }

// close stops every goroutine of the clock.
func (c *refClock) close() {
	for _, g := range c.groups {
		g.stop()
	}
}
