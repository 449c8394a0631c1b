package sched

import (
	"math/rand"

	"rff/internal/exec"
)

// eventKey identifies one pending event instance within an execution: a
// thread's k-th operation. Scores are attached to instances, not abstract
// events, per the POS algorithm.
type eventKey struct {
	thread exec.ThreadID
	seq    int
}

// POS implements Partial Order Sampling (Yuan, Yang, Gu — CAV 2018): every
// pending event receives a uniform random score when first observed; the
// enabled event with the highest score executes next; after a step, the
// scores of events racing with the executed one are re-drawn. POS both is
// an evaluation baseline (RQ2's ablation) and the randomization layer RFF
// degrades to when no abstract-schedule constraint applies.
type POS struct {
	rng    *rand.Rand
	scores map[eventKey]float64
}

// NewPOS returns a POS scheduler.
func NewPOS() *POS { return &POS{scores: make(map[eventKey]float64)} }

// Name implements exec.Scheduler.
func (s *POS) Name() string { return "POS" }

// Begin implements exec.Scheduler.
func (s *POS) Begin(seed int64) {
	s.rng = reseed(s.rng, seed)
	clear(s.scores)
}

// Pick implements exec.Scheduler: argmax of per-event random scores, with
// score resets for events racing with the chosen one.
func (s *POS) Pick(v *exec.View) int {
	best := s.ArgMax(v.Enabled, nil)
	// Reset scores of racing events (the chosen event's own score dies
	// with its key: the thread's next pending has a larger seq).
	s.ResetRacing(v.Enabled, &v.Enabled[best])
	return best
}

// ArgMax returns the index of the highest-scored pending among candidates,
// assigning fresh random scores to first-seen events. If restrict is
// non-nil, only indices i with restrict[i] true compete (used by RFF to run
// POS within a priority class); restrict must contain at least one true.
func (s *POS) ArgMax(candidates []exec.Pending, restrict []bool) int {
	best := -1
	var bestScore float64
	for i := range candidates {
		p := &candidates[i]
		k := eventKey{p.Thread, p.Seq}
		sc, ok := s.scores[k]
		if !ok {
			sc = s.rng.Float64()
			s.scores[k] = sc
		}
		if restrict != nil && !restrict[i] {
			continue
		}
		if best < 0 || sc > bestScore {
			best = i
			bestScore = sc
		}
	}
	return best
}

// ResetRacing re-draws the scores of candidates racing with chosen; exposed
// for RFF, which performs its own Pick but must preserve POS's reset rule.
func (s *POS) ResetRacing(candidates []exec.Pending, chosen *exec.Pending) {
	for i := range candidates {
		if p := &candidates[i]; exec.Races(p, chosen) {
			delete(s.scores, eventKey{p.Thread, p.Seq})
		}
	}
	delete(s.scores, eventKey{chosen.Thread, chosen.Seq})
}

// Executed implements exec.Scheduler.
func (s *POS) Executed(exec.Event) {}

// End implements exec.Scheduler.
func (s *POS) End(*exec.Trace) {}
