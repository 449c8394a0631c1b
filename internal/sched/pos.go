package sched

import (
	"math/rand"

	"rff/internal/exec"
)

// scoreSlot holds a thread's score. Scores are attached to event
// instances, not abstract events, per the POS algorithm: the slot's score
// belongs to the thread's seq-th operation, and only while set. A thread
// has one pending instance at a time and its seq only grows, so one slot
// per thread holds every score that can still be looked up. set is
// explicit because seq 0 is a real instance: the OpBegin pending of a
// spawned thread.
type scoreSlot struct {
	seq   int
	set   bool
	score float64
}

// POS implements Partial Order Sampling (Yuan, Yang, Gu — CAV 2018): every
// pending event receives a uniform random score when first observed; the
// enabled event with the highest score executes next; after a step, the
// scores of events racing with the executed one are re-drawn. POS both is
// an evaluation baseline (RQ2's ablation) and the randomization layer RFF
// degrades to when no abstract-schedule constraint applies.
type POS struct {
	rng    *rand.Rand
	scores []scoreSlot // index = ThreadID
}

// NewPOS returns a POS scheduler.
func NewPOS() *POS { return &POS{} }

// Name implements exec.Scheduler.
func (s *POS) Name() string { return "POS" }

// Begin implements exec.Scheduler.
func (s *POS) Begin(seed int64) {
	s.rng = reseed(s.rng, seed)
	clear(s.scores)
}

// slot returns th's score slot, growing the table on first sight.
func (s *POS) slot(th exec.ThreadID) *scoreSlot {
	for int(th) >= len(s.scores) {
		s.scores = append(s.scores, scoreSlot{})
	}
	return &s.scores[th]
}

// Pick implements exec.Scheduler: argmax of per-event random scores, with
// score resets for events racing with the chosen one.
func (s *POS) Pick(v *exec.View) int {
	best := s.ArgMax(v.Enabled, nil)
	// Reset scores of racing events (the chosen event's own score dies
	// with its instance: the thread's next pending has a larger seq).
	s.ResetRacing(v.Enabled, v.Enabled[best])
	return best
}

// ArgMax returns the index of the highest-scored pending among candidates,
// assigning fresh random scores to first-seen events. If restrict is
// non-nil, only indices i with restrict[i] true compete (used by RFF to run
// POS within a priority class); restrict must contain at least one true.
func (s *POS) ArgMax(candidates []*exec.Pending, restrict []bool) int {
	best := -1
	var bestScore float64
	for i, p := range candidates {
		sl := s.slot(p.Thread)
		if !sl.set || sl.seq != p.Seq {
			*sl = scoreSlot{seq: p.Seq, set: true, score: s.rng.Float64()}
		}
		if restrict != nil && !restrict[i] {
			continue
		}
		if best < 0 || sl.score > bestScore {
			best = i
			bestScore = sl.score
		}
	}
	return best
}

// ResetRacing re-draws the scores of candidates racing with chosen; exposed
// for RFF, which performs its own Pick but must preserve POS's reset rule.
func (s *POS) ResetRacing(candidates []*exec.Pending, chosen *exec.Pending) {
	for _, p := range candidates {
		if exec.Races(p, chosen) {
			s.unset(p)
		}
	}
	s.unset(chosen)
}

// unset drops p's score, if p holds one.
func (s *POS) unset(p *exec.Pending) {
	if int(p.Thread) < len(s.scores) {
		if sl := &s.scores[p.Thread]; sl.seq == p.Seq {
			sl.set = false
		}
	}
}

// Executed implements exec.Scheduler.
func (s *POS) Executed(exec.Event) {}

// End implements exec.Scheduler.
func (s *POS) End(*exec.Trace) {}
