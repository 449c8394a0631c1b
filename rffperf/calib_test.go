package main

import (
	"testing"
	"time"
)

func TestRefClockSamplesWithoutAllocating(t *testing.T) {
	c := newRefClock(2)
	defer c.close()
	if a := testing.AllocsPerRun(20, c.sample); a > 0.5 {
		// perOp grows by append; amortized, a sample allocates nothing.
		t.Errorf("a reference sample allocates %.1f times", a)
	}
	if c.nsPerHandoff() <= 0 || c.scale() <= 0 {
		t.Errorf("ns per handoff %v, scale %v; want positive", c.nsPerHandoff(), c.scale())
	}
}

func TestMeterExcludesReferenceSamples(t *testing.T) {
	var m meter
	m.start()
	m.exclude(func() { time.Sleep(20 * time.Millisecond) })
	m.stop()
	if m.total.wall >= 10*time.Millisecond {
		t.Errorf("excluded 20ms sleep counted: timed wall %v", m.total.wall)
	}
}
