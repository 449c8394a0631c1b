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
// implementing the Figure 2 prioritization rules. Begin resolves the
// constraint's events to keys, so every step compares integers; keys are
// equality tokens only (see exec.EventKey).
type machine struct {
	read, write exec.EventKey // keys of the constraint's read and write
	// rvar is the read's shared object: where "is w the last write?" is
	// asked, and which other writes can bury w.
	rvar    exec.VarKey
	negated bool
	phase   machinePhase
}

func newMachine(c Constraint) machine {
	read := exec.KeyOf(c.Read)
	return machine{read: read, write: exec.KeyOf(c.Write), rvar: read.Var(), negated: c.Negated}
}

// vote adds this machine's priority votes for the enabled pendings:
// +1 boosts, -1 deprioritizes. An enabled pending may instantiate the
// constraint's read, its write, or be another write to the read's
// object (which would bury w); which of those gain or lose depends on
// the Figure 2 state, read off the live engine state: is w currently the
// last write, and is the read enabled?
func (m *machine) vote(v *exec.View, votes []int) {
	if m.phase != phaseActive {
		return
	}
	writeIsLast := v.LastWriteKey(m.rvar) == m.write
	var readVote, writeVote, otherVote int
	switch {
	case !m.negated && writeIsLast:
		// Positive w -rf-> r (Figure 2a), blue states: w executed and is
		// still visible — rush the read, hold off overwriters.
		readVote, otherVote = 1, -1
	case !m.negated && m.readEnabled(v):
		// Red states: the read is ready too early — delay it and pull
		// the target write forward.
		readVote, writeVote = -1, 1
	case !m.negated:
		// Green states (read not enabled, write not last): no bias.
		return
	case writeIsLast:
		// Negative w -/rf/-> r (Figure 2b), yellow states: reading now
		// would violate — delay the read and push any other write to
		// bury w.
		readVote, otherVote = -1, 1
	default:
		// Purple states: reading now is safe — do it greedily, and keep
		// w out of the picture.
		readVote, writeVote = 1, -1
	}
	for i, p := range v.Enabled {
		instRead := p.Key == m.read && p.IsReadLike()
		if instRead {
			votes[i] += readVote
		}
		switch {
		case p.WriteKey == 0:
		case p.WriteKey == m.write:
			votes[i] += writeVote
		case !instRead && p.Key.Var() == m.rvar:
			votes[i] += otherVote
		}
	}
}

// readEnabled reports whether some enabled pending instantiates the
// constraint's read.
func (m *machine) readEnabled(v *exec.View) bool {
	for _, p := range v.Enabled {
		if p.Key == m.read && p.IsReadLike() {
			return true
		}
	}
	return false
}

// observe advances the machine on an executed read event with key read
// (writer is the key of the write it observed).
func (m *machine) observe(read, writer exec.EventKey) {
	if m.phase != phaseActive || read != m.read {
		return
	}
	if writer == m.write {
		if m.negated {
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
	// writeKeys resolves executed write event IDs to their keys so reads
	// can be matched to the writer they observed (0: not a write). Trace
	// IDs are dense and monotonic, so a slice indexed by ID serves; its
	// backing array is reused across executions.
	writeKeys []exec.EventKey

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
	s.machines = s.machines[:0]
	for _, c := range s.target.Constraints() {
		s.machines = append(s.machines, newMachine(c))
	}
	s.writeKeys = s.writeKeys[:0]
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
	s.pos.ResetRacing(v.Enabled, v.Enabled[idx])
	return idx
}

// Executed implements exec.Scheduler: tracks writer keys and advances
// constraint machines on reads.
func (s *Proactive) Executed(ev exec.Event) {
	if ev.Op.ActsAsWrite() {
		for len(s.writeKeys) <= ev.ID {
			s.writeKeys = append(s.writeKeys, 0)
		}
		s.writeKeys[ev.ID] = ev.Key
	}
	if ev.Op.ReadsFrom() && ev.RF != 0 {
		if ev.RF >= len(s.writeKeys) {
			return
		}
		writer := s.writeKeys[ev.RF]
		if writer == 0 {
			return
		}
		for i := range s.machines {
			s.machines[i].observe(ev.Key, writer)
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
