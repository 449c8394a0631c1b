// Package sched provides the baseline schedulers used by the evaluation:
// a uniform random walk, a deterministic round-robin, an exact replayer,
// Partial Order Sampling (POS, Yuan et al. CAV'18), and PCT (Burckhardt et
// al. ASPLOS'10). RFF's proactive reads-from scheduler lives in
// internal/core and layers on top of POS from this package.
package sched

import (
	"math/rand"

	"rff/internal/exec"
)

// Random is the unbiased random-walk scheduler: at every scheduling point
// it picks uniformly among enabled events. It is the naive sampling
// baseline the paper's Section 1 calls "optimistic".
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random scheduler.
func NewRandom() *Random { return &Random{} }

// Name implements exec.Scheduler.
func (s *Random) Name() string { return "Random" }

// Begin implements exec.Scheduler.
func (s *Random) Begin(seed int64) { s.rng = reseed(s.rng, seed) }

// reseed returns r reseeded with seed, or a new generator if r is nil.
// Reseeding replays exactly the stream of rand.New(rand.NewSource(seed))
// without allocating another 4.9 KB source per execution.
func reseed(r *rand.Rand, seed int64) *rand.Rand {
	if r == nil {
		return rand.New(rand.NewSource(seed))
	}
	r.Seed(seed)
	return r
}

// Pick implements exec.Scheduler.
func (s *Random) Pick(v *exec.View) int { return s.rng.Intn(len(v.Enabled)) }

// Executed implements exec.Scheduler.
func (s *Random) Executed(exec.Event) {}

// End implements exec.Scheduler.
func (s *Random) End(*exec.Trace) {}

// RoundRobin deterministically prefers the lowest-numbered enabled thread.
// It is useful in tests and as the most boring possible schedule.
type RoundRobin struct{}

// NewRoundRobin returns a RoundRobin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements exec.Scheduler.
func (s *RoundRobin) Name() string { return "RoundRobin" }

// Begin implements exec.Scheduler.
func (s *RoundRobin) Begin(int64) {}

// Pick implements exec.Scheduler.
func (s *RoundRobin) Pick(v *exec.View) int { return 0 }

// Executed implements exec.Scheduler.
func (s *RoundRobin) Executed(exec.Event) {}

// End implements exec.Scheduler.
func (s *RoundRobin) End(*exec.Trace) {}

// Replay re-executes a recorded decision sequence (Trace.ThreadOrder),
// giving deterministic reproduction of any previously observed schedule —
// the reproducibility property Deterministic Multi-Threading buys the
// paper's implementation. If the recorded thread is not currently enabled
// (which cannot happen when replaying against the same program), Replay
// falls back to the first enabled event.
type Replay struct {
	order []exec.ThreadID
	pos   int
}

// NewReplay returns a scheduler replaying the given decision sequence.
func NewReplay(order []exec.ThreadID) *Replay { return &Replay{order: order} }

// Name implements exec.Scheduler.
func (s *Replay) Name() string { return "Replay" }

// Begin implements exec.Scheduler.
func (s *Replay) Begin(int64) { s.pos = 0 }

// Pick implements exec.Scheduler.
func (s *Replay) Pick(v *exec.View) int {
	if s.pos < len(s.order) {
		want := s.order[s.pos]
		s.pos++
		for i, p := range v.Enabled {
			if p.Thread == want {
				return i
			}
		}
	}
	return 0
}

// Executed implements exec.Scheduler.
func (s *Replay) Executed(exec.Event) {}

// End implements exec.Scheduler.
func (s *Replay) End(*exec.Trace) {}
