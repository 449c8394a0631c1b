// Package qlearn implements the paper's "Reads-From Q-Learning" baseline
// (Section 5.5): a reinforcement-learning scheduler that leverages the same
// reads-from information as RFF inside a Q-Learning framework instead of a
// greybox fuzzing loop.
//
// The state of a partial execution is a commutative running hash of the
// reads-from pairs observed so far; an action is the abstract event chosen
// at a scheduling point. Visited (state, action) pairs receive a constant
// negative reward (as in Mukherjee et al., OOPSLA'20), pushing the sampler
// toward under-visited scheduling decisions. The Q-table persists across
// executions of a campaign.
package qlearn

import (
	"math/rand"

	"rff/internal/exec"
)

// Config tunes the learner; zero values select the defaults used in the
// evaluation.
type Config struct {
	// Alpha is the learning rate (default 0.5).
	Alpha float64
	// Gamma is the discount factor (default 0.7).
	Gamma float64
	// Epsilon is the exploration rate of the ε-greedy policy
	// (default 0.1).
	Epsilon float64
	// Reward is the constant reward applied to every visited
	// (state, action) pair (default -1).
	Reward float64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Gamma == 0 {
		c.Gamma = 0.7
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Reward == 0 {
		c.Reward = -1
	}
	return c
}

// Scheduler is the Q-Learning-RF scheduler. It implements exec.Scheduler
// and keeps its Q-table across executions; build one per campaign.
//
// Actions are raw scheduling decisions — which thread runs next — as in
// the paper's "considering each scheduling decision to be an action";
// only the *state* abstraction uses reads-from information. This is what
// distinguishes the baseline from RFF, which acts on abstract events.
type Scheduler struct {
	cfg Config
	rng *rand.Rand

	// q maps state-hash -> thread action -> value.
	q map[uint64]map[exec.ThreadID]float64

	state uint64 // commutative hash of rf pairs seen so far this run
	// writeAbs resolves executed write event IDs to abstract events;
	// trace IDs are dense, so a reused slice beats a per-run map.
	writeAbs []exec.AbstractEvent

	// prev is the (state, action) awaiting its TD update once the next
	// state is known.
	prev struct {
		valid  bool
		state  uint64
		action exec.ThreadID
	}
}

// New returns a Q-Learning-RF scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg: cfg.withDefaults(),
		q:   make(map[uint64]map[exec.ThreadID]float64),
	}
}

// Name implements exec.Scheduler.
func (s *Scheduler) Name() string { return "QLearning-RF" }

// Begin implements exec.Scheduler.
func (s *Scheduler) Begin(seed int64) {
	s.rng = rand.New(rand.NewSource(seed))
	s.state = 0
	s.writeAbs = s.writeAbs[:0]
	s.prev.valid = false
}

// qval reads Q(s, a), defaulting unseen pairs to zero (optimistic relative
// to the negative rewards, so fresh actions are preferred).
func (s *Scheduler) qval(state uint64, a exec.ThreadID) float64 {
	return s.q[state][a]
}

// setq writes Q(s, a).
func (s *Scheduler) setq(state uint64, a exec.ThreadID, v float64) {
	m := s.q[state]
	if m == nil {
		m = make(map[exec.ThreadID]float64)
		s.q[state] = m
	}
	m[a] = v
}

// maxq returns max_a' Q(s, a') over the available actions.
func (s *Scheduler) maxq(state uint64, actions []*exec.Pending) float64 {
	best := 0.0
	first := true
	for _, p := range actions {
		v := s.qval(state, p.Thread)
		if first || v > best {
			best = v
			first = false
		}
	}
	return best
}

// Pick implements exec.Scheduler: finish the pending TD update with the
// now-known successor state, then choose ε-greedily among enabled events.
func (s *Scheduler) Pick(v *exec.View) int {
	if s.prev.valid {
		old := s.qval(s.prev.state, s.prev.action)
		target := s.cfg.Reward + s.cfg.Gamma*s.maxq(s.state, v.Enabled)
		s.setq(s.prev.state, s.prev.action, old+s.cfg.Alpha*(target-old))
		s.prev.valid = false
	}

	var idx int
	if s.rng.Float64() < s.cfg.Epsilon {
		idx = s.rng.Intn(len(v.Enabled))
	} else {
		// Argmax with uniform tie-breaking.
		best := s.qval(s.state, v.Enabled[0].Thread)
		ties := []int{0}
		for i := 1; i < len(v.Enabled); i++ {
			val := s.qval(s.state, v.Enabled[i].Thread)
			switch {
			case val > best:
				best = val
				ties = ties[:0]
				ties = append(ties, i)
			case val == best:
				ties = append(ties, i)
			}
		}
		idx = ties[s.rng.Intn(len(ties))]
	}

	s.prev.valid = true
	s.prev.state = s.state
	s.prev.action = v.Enabled[idx].Thread
	return idx
}

// Executed implements exec.Scheduler: track reads-from pairs to advance the
// commutative state hash.
func (s *Scheduler) Executed(ev exec.Event) {
	if ev.Op.ActsAsWrite() {
		for len(s.writeAbs) <= int(ev.ID) {
			s.writeAbs = append(s.writeAbs, exec.AbstractEvent{})
		}
		s.writeAbs[ev.ID] = ev.Abstract()
	}
	if ev.Op.ReadsFrom() && ev.RF != 0 && ev.RF < len(s.writeAbs) {
		if writer := s.writeAbs[ev.RF]; !writer.IsZero() {
			pair := exec.RFPair{Write: writer, Read: ev.Abstract()}
			s.state ^= exec.HashRFPair(pair) // XOR: commutative, as required
		}
	}
}

// End implements exec.Scheduler: apply the final reward to the last action.
func (s *Scheduler) End(t *exec.Trace) {
	if s.prev.valid {
		old := s.qval(s.prev.state, s.prev.action)
		s.setq(s.prev.state, s.prev.action, old+s.cfg.Alpha*(s.cfg.Reward-old))
		s.prev.valid = false
	}
}

// States reports the number of distinct states in the Q-table (diagnostic).
func (s *Scheduler) States() int { return len(s.q) }
