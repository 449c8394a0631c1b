// Package minimize shrinks a failing schedule to a minimal set of context
// switches via delta debugging. A bug found by the fuzzer typically comes
// with a decision sequence full of incidental preemptions; the minimizer
// keeps only the switches the failure actually needs, yielding the kind of
// two-or-three-switch reproduction a human can read off the trace.
package minimize

import (
	"rff/internal/exec"
)

// Switch is one forced context switch, anchored to a logical position:
// once thread After has executed Count scheduling decisions, switch to
// Thread (as soon as it is enabled). Logical anchors survive the step
// drift that removing other switches causes — "preempt setter 5 after its
// first write" stays meaningful no matter what happens upstream.
type Switch struct {
	After  exec.ThreadID
	Count  int
	Thread exec.ThreadID
}

// Options configures minimization.
type Options struct {
	// MaxSteps bounds each probe execution (0 = engine default).
	MaxSteps int
	// MatchLoc additionally requires the failure location to match the
	// original (default: kind only).
	MatchLoc bool
	// Budget bounds the number of candidate executions (probes). Zero
	// means the 2000 default; a negative
	// Budget allows no probes at all, in which case Minimize returns the
	// original switch set unminimized rather than nil — an exhausted
	// budget is a triage throughput decision, not evidence the artifact
	// is broken.
	Budget int
}

// probeBudget resolves the effective probe budget.
func (o Options) probeBudget() int {
	switch {
	case o.Budget > 0:
		return o.Budget
	case o.Budget < 0:
		return 0
	}
	return 2000
}

// Result reports the outcome of a minimization.
type Result struct {
	// OriginalSwitches and MinimalSwitches count context switches before
	// and after.
	OriginalSwitches int
	MinimalSwitches  int
	// Switches is the minimal forced-switch set.
	Switches []Switch
	// Decisions replays the minimized failing execution exactly.
	Decisions []exec.ThreadID
	// Preemptions counts the switches in Decisions that preempted a
	// still-enabled thread — the irreducible "bug depth" of the
	// reproduction (exits and blocking force the remaining switches).
	Preemptions int
	// Failure is the reproduced failure.
	Failure *exec.Failure
	// Probes is the number of candidate executions tried.
	Probes int
}

// switchSched runs the current thread for as long as it is enabled,
// applying forced switches in order at their logical anchors; with the
// switch list derived from a recorded decision sequence it reproduces
// that execution exactly.
type switchSched struct {
	switches []Switch
	next     int
	current  exec.ThreadID
	counts   map[exec.ThreadID]int
}

func (s *switchSched) Name() string { return "minimize" }
func (s *switchSched) Begin(int64) {
	s.next = 0
	s.current = 0
	s.counts = make(map[exec.ThreadID]int)
}

// due reports whether the next switch's anchor has been reached.
func (s *switchSched) due() bool {
	if s.next >= len(s.switches) {
		return false
	}
	sw := s.switches[s.next]
	return s.counts[sw.After] >= sw.Count
}

func (s *switchSched) pick(v *exec.View) int {
	// Forced switch that has come due and whose target is ready.
	if s.due() {
		want := s.switches[s.next].Thread
		for i, p := range v.Enabled {
			if p.Thread == want {
				s.next++
				return i
			}
		}
	}
	// Otherwise run the current thread while it can run.
	for i, p := range v.Enabled {
		if p.Thread == s.current {
			return i
		}
	}
	// Current thread blocked or exited: consume the next itinerary entry
	// early if its thread is ready, else fall to the lowest enabled.
	if s.next < len(s.switches) {
		want := s.switches[s.next].Thread
		for i, p := range v.Enabled {
			if p.Thread == want {
				s.next++
				return i
			}
		}
	}
	return 0
}

func (s *switchSched) Pick(v *exec.View) int {
	i := s.pick(v)
	s.current = v.Enabled[i].Thread
	s.counts[s.current]++
	return i
}
func (s *switchSched) Executed(exec.Event) {}
func (s *switchSched) End(*exec.Trace)     {}

// switchesOf derives the forced-switch representation of a decision
// sequence: one switch per change of executing thread, anchored to the
// preceding thread's decision count.
func switchesOf(decisions []exec.ThreadID) []Switch {
	var out []Switch
	counts := make(map[exec.ThreadID]int)
	var cur exec.ThreadID
	for _, th := range decisions {
		if th != cur {
			out = append(out, Switch{After: cur, Count: counts[cur], Thread: th})
			cur = th
		}
		counts[th]++
	}
	return out
}

// Minimize shrinks the failing schedule recorded in decisions (e.g. a
// core.FailureRecord's Decisions) to a minimal switch set that still
// reproduces the failure. Returns nil if the original schedule does not
// reproduce (which cannot happen for decisions recorded against the same
// program). If the probe budget is exhausted before the original can
// even be verified (Options.Budget <= 0 via an explicit negative value),
// the original switch set is returned unminimized instead of nil.
func Minimize(name string, prog exec.Program, decisions []exec.ThreadID, original *exec.Failure, opts Options) *Result {
	budget := opts.probeBudget()
	res := &Result{}

	matches := func(f *exec.Failure) bool {
		if f == nil || original == nil || f.Kind != original.Kind {
			return f != nil && original == nil
		}
		if opts.MatchLoc && f.Loc != original.Loc {
			return false
		}
		return true
	}

	var lastGood *exec.Result
	probe := func(sw []Switch) bool {
		if res.Probes >= budget {
			return false
		}
		res.Probes++
		sched := &switchSched{switches: sw}
		r := exec.Run(name, prog, exec.Config{Scheduler: sched, MaxSteps: opts.MaxSteps})
		if matches(r.Failure) {
			lastGood = r
			return true
		}
		return false
	}

	current := switchesOf(decisions)
	res.OriginalSwitches = len(current)
	if budget <= 0 {
		// Budget exhausted before any reduction: hand back the original
		// schedule unminimized. The caller still gets a replayable switch
		// set and decision sequence — just not a smaller one.
		res.MinimalSwitches = len(current)
		res.Switches = current
		res.Decisions = append([]exec.ThreadID(nil), decisions...)
		res.Failure = original
		res.Preemptions = countPreemptions(name, prog, res.Decisions, opts.MaxSteps)
		return res
	}
	if !probe(current) {
		return nil // original does not reproduce: inconsistent inputs
	}

	// ddmin over the switch list: remove chunks of decreasing size until
	// no single switch can be removed.
	chunk := len(current) / 2
	for chunk >= 1 {
		removedAny := false
		for start := 0; start < len(current); {
			end := start + chunk
			if end > len(current) {
				end = len(current)
			}
			candidate := make([]Switch, 0, len(current)-(end-start))
			candidate = append(candidate, current[:start]...)
			candidate = append(candidate, current[end:]...)
			if len(candidate) < len(current) && probe(candidate) {
				// Re-anchor on the switches the failing run actually
				// performed: removing a switch shifts every later step
				// index, and re-canonicalizing keeps them aligned with
				// the new execution.
				rederived := switchesOf(lastGood.Trace.ThreadOrder())
				if len(rederived) < len(candidate) {
					current = rederived
				} else {
					current = candidate
				}
				removedAny = true
				// Retry at the same position: the list shifted left.
			} else {
				start = end
			}
		}
		if !removedAny {
			chunk /= 2
		} else if chunk > len(current)/2 && len(current) > 1 {
			chunk = len(current) / 2
		}
		if chunk > len(current) {
			chunk = len(current)
		}
	}

	res.MinimalSwitches = len(current)
	res.Switches = current
	res.Decisions = lastGood.Trace.ThreadOrder()
	res.Failure = lastGood.Failure
	res.Preemptions = countPreemptions(name, prog, res.Decisions, opts.MaxSteps)
	return res
}

// Replay re-executes the program under a forced-switch set (e.g. a
// Result.Switches) and returns the execution's failure, or nil if the
// run completed cleanly. This is the consumer-facing half of the
// minimizer's contract: the minimal switch set is not just small, it
// still reproduces the bug.
func Replay(name string, prog exec.Program, switches []Switch, maxSteps int) *exec.Failure {
	s := &switchSched{switches: switches}
	return exec.Run(name, prog, exec.Config{Scheduler: s, MaxSteps: maxSteps}).Failure
}

// preemptionCounter replays a decision sequence while counting the
// switches that preempted a still-enabled thread — the measure of how
// "hard" a schedule is to stumble into, and the quantity minimization
// actually drives down (exits and blocking induce switches no scheduler
// can avoid).
type preemptionCounter struct {
	order []exec.ThreadID
	pos   int
	last  exec.ThreadID
	count int
}

func (s *preemptionCounter) Name() string { return "preemption-count" }
func (s *preemptionCounter) Begin(int64)  { s.pos = 0; s.last = 0; s.count = 0 }
func (s *preemptionCounter) Pick(v *exec.View) int {
	choice := 0
	if s.pos < len(s.order) {
		want := s.order[s.pos]
		for i, p := range v.Enabled {
			if p.Thread == want {
				choice = i
				break
			}
		}
	}
	s.pos++
	chosen := v.Enabled[choice].Thread
	if s.last != 0 && chosen != s.last {
		for _, p := range v.Enabled {
			if p.Thread == s.last {
				s.count++ // previous thread could have continued
				break
			}
		}
	}
	s.last = chosen
	return choice
}
func (s *preemptionCounter) Executed(exec.Event) {}
func (s *preemptionCounter) End(*exec.Trace)     {}

// countPreemptions replays decisions and counts preemptive switches.
func countPreemptions(name string, prog exec.Program, decisions []exec.ThreadID, maxSteps int) int {
	c := &preemptionCounter{order: decisions}
	exec.Run(name, prog, exec.Config{Scheduler: c, MaxSteps: maxSteps})
	return c.count
}
