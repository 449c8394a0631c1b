package core

import (
	"rff/internal/exec"
	"rff/internal/sched"
)

// machinePhase tracks a constraint state machine through one execution.
// The explicit q1..q6 states of Figure 2 collapse onto a phase plus the
// live engine state (is the target write currently the last write? is the
// read enabled?), which together determine the prioritization votes.
type machinePhase uint8

const (
	// phaseActive: the constraint still steers scheduling.
	phaseActive machinePhase = iota
	// phaseSatisfied: a positive constraint was witnessed and retired
	// (existential semantics — Figure 2a's accept).
	phaseSatisfied
	// phaseRejected: a negative constraint was unavoidably violated
	// (Figure 2b's REJECT); it stops influencing the run.
	phaseRejected
)

// machine drives one reads-from constraint of the abstract schedule,
// implementing the Figure 2 prioritization rules.
type machine struct {
	c     Constraint
	phase machinePhase
}

// vote adds this machine's priority votes for the enabled pendings:
// +1 boosts, -1 deprioritizes. lastWriteMatches reports whether the
// constraint's write is currently the last write on its variable.
func (m *machine) vote(v *exec.View, votes []int) {
	if m.phase != phaseActive {
		return
	}
	lw, _, ok := v.LastWrite(m.c.Read.Var)
	writeIsLast := ok && lw == m.c.Write

	for i := range v.Enabled {
		p := &v.Enabled[i]
		instRead := p.IsReadLike() && p.Abstract() == m.c.Read
		wAbs, isWrite := p.AbstractWrite()
		instWrite := isWrite && wAbs == m.c.Write
		otherWrite := isWrite && !instRead && p.VarName == m.c.Read.Var && wAbs != m.c.Write

		if !m.c.Negated {
			// Positive w -rf-> r (Figure 2a).
			if writeIsLast {
				// Blue states: w executed and still visible — rush the
				// read, hold off overwriters.
				if instRead {
					votes[i]++
				}
				if otherWrite {
					votes[i]--
				}
			} else if m.readEnabled(v) {
				// Red states: the read is ready too early — delay it and
				// pull the target write forward.
				if instRead {
					votes[i]--
				}
				if instWrite {
					votes[i]++
				}
			}
			// Green states (read not enabled, write not last): no bias.
		} else {
			// Negative w -/rf/-> r (Figure 2b).
			if writeIsLast {
				// Yellow states: reading now would violate — delay the
				// read and push any other write to bury w.
				if instRead {
					votes[i]--
				}
				if otherWrite {
					votes[i]++
				}
			} else {
				// Purple states: reading now is safe — do it greedily,
				// and keep w out of the picture.
				if instRead {
					votes[i]++
				}
				if instWrite {
					votes[i]--
				}
			}
		}
	}
}

// readEnabled reports whether some enabled pending instantiates the
// constraint's read.
func (m *machine) readEnabled(v *exec.View) bool {
	for i := range v.Enabled {
		if p := &v.Enabled[i]; p.IsReadLike() && p.Abstract() == m.c.Read {
			return true
		}
	}
	return false
}

// observe advances the machine on an executed read event (writerAbs is the
// abstract event of the write it observed).
func (m *machine) observe(readAbs, writerAbs exec.AbstractEvent) {
	if m.phase != phaseActive || readAbs != m.c.Read {
		return
	}
	if writerAbs == m.c.Write {
		if m.c.Negated {
			m.phase = phaseRejected // REJECT: violated for the whole run
		} else {
			m.phase = phaseSatisfied // existential: witnessed once, retire
		}
	}
	// A positive constraint whose read observed a different writer simply
	// reverts to its initial behaviour (Figure 2a's fallback to q1): the
	// same abstract read may recur later in the run.
}

// Proactive is RFF's proactive reads-from scheduler: it biases scheduling
// decisions toward instantiating a target abstract schedule, one state
// machine per constraint, and degrades to POS whenever the machines are
// indifferent or in conflict (Section 3, "Proactive Scheduling of
// Reads-from Constraints").
//
// Set the target via SetSchedule before each execution; the fuzzer does
// this with every mutant it wants tested.
type Proactive struct {
	pos      *sched.POS
	target   Schedule
	machines []machine
	// writeAbs resolves executed write event IDs to their abstract events
	// so reads can be matched to the writer they observed. Trace IDs are
	// dense and monotonic, so a slice indexed by ID replaces the previous
	// per-execution map; its backing array is reused across executions.
	writeAbs []exec.AbstractEvent

	votes    []int
	restrict []bool
}

// NewProactive returns a proactive scheduler with an empty target schedule
// (pure POS behaviour until SetSchedule is called).
func NewProactive() *Proactive {
	return &Proactive{pos: sched.NewPOS()}
}

// SetSchedule installs the abstract schedule the next execution should be
// driven toward.
func (s *Proactive) SetSchedule(target Schedule) { s.target = target }

// Name implements exec.Scheduler.
func (s *Proactive) Name() string { return "RFF" }

// Begin implements exec.Scheduler: rebuilds one machine per constraint.
func (s *Proactive) Begin(seed int64) {
	s.pos.Begin(seed)
	cs := s.target.Constraints()
	s.machines = s.machines[:0]
	for _, c := range cs {
		s.machines = append(s.machines, machine{c: c})
	}
	s.writeAbs = s.writeAbs[:0]
}

// Pick implements exec.Scheduler: sum machine votes per enabled event, keep
// the maximum-vote class, and let POS choose within it. With no active
// machines every vote is zero and the behaviour is exactly POS.
func (s *Proactive) Pick(v *exec.View) int {
	n := len(v.Enabled)
	if cap(s.votes) < n {
		s.votes = make([]int, n)
		s.restrict = make([]bool, n)
	}
	votes := s.votes[:n]
	restrict := s.restrict[:n]
	for i := range votes {
		votes[i] = 0
	}
	for i := range s.machines {
		s.machines[i].vote(v, votes)
	}
	max := votes[0]
	for _, x := range votes[1:] {
		if x > max {
			max = x
		}
	}
	for i, x := range votes {
		restrict[i] = x == max
	}
	idx := s.pos.ArgMax(v.Enabled, restrict)
	s.pos.ResetRacing(v.Enabled, &v.Enabled[idx])
	return idx
}

// Executed implements exec.Scheduler: tracks writer abstractions and
// advances constraint machines on reads.
func (s *Proactive) Executed(ev exec.Event) {
	if ev.Op.ActsAsWrite() {
		for len(s.writeAbs) <= int(ev.ID) {
			s.writeAbs = append(s.writeAbs, exec.AbstractEvent{})
		}
		s.writeAbs[ev.ID] = ev.Abstract()
	}
	if ev.Op.ReadsFrom() && ev.RF != 0 {
		if ev.RF >= len(s.writeAbs) {
			return
		}
		writer := s.writeAbs[ev.RF]
		if writer.IsZero() {
			return
		}
		readAbs := ev.Abstract()
		for i := range s.machines {
			s.machines[i].observe(readAbs, writer)
		}
	}
}

// End implements exec.Scheduler.
func (s *Proactive) End(*exec.Trace) {}

// SatisfiedCount returns how many positive constraints were witnessed in
// the last execution — useful for tests and diagnostics.
func (s *Proactive) SatisfiedCount() int {
	n := 0
	for _, m := range s.machines {
		if m.phase == phaseSatisfied {
			n++
		}
	}
	return n
}

// RejectedCount returns how many negative constraints were violated in the
// last execution.
func (s *Proactive) RejectedCount() int {
	n := 0
	for _, m := range s.machines {
		if m.phase == phaseRejected {
			n++
		}
	}
	return n
}
