package sched

import (
	"math/rand"
	"sort"

	"rff/internal/exec"
)

// PCT implements the Probabilistic Concurrency Testing scheduler
// (Burckhardt, Kothari, Musuvathi, Nagarakatte — ASPLOS 2010) with bug
// depth d: threads receive distinct random priorities above d; the
// highest-priority enabled thread always runs; at d-1 random change points
// (sampled over the estimated execution length) the currently scheduled
// thread's priority drops below all others. The paper evaluates PCT at
// depth 3, which was the strongest setting in the SCTBench study.
//
// The execution-length estimate adapts across runs (maximum trace length
// seen so far), as in practical PCT implementations that cannot know n in
// advance.
type PCT struct {
	depth int
	rng   *rand.Rand

	prio    []prioSlot  // index = ThreadID
	changes map[int]int // step -> change-point index (1-based)
	step    int
	nextLow int // priority assigned at the k-th change point: depth-k

	estLen int
}

// NewPCT returns a PCT scheduler with the given bug-depth parameter.
func NewPCT(depth int) *PCT {
	if depth < 1 {
		depth = 1
	}
	return &PCT{depth: depth, estLen: 64, changes: make(map[int]int)}
}

// prioSlot holds a thread's priority once it has drawn one.
type prioSlot struct {
	prio int
	set  bool
}

// Name implements exec.Scheduler.
func (s *PCT) Name() string {
	if s.depth == 3 {
		return "PCT3"
	}
	return "PCT" + string(rune('0'+s.depth%10))
}

// Begin implements exec.Scheduler.
func (s *PCT) Begin(seed int64) {
	s.rng = reseed(s.rng, seed)
	clear(s.prio)
	clear(s.changes)
	s.step = 0
	// Sample d-1 distinct change points over the estimated length.
	points := make(map[int]struct{})
	for len(points) < s.depth-1 && len(points) < s.estLen {
		points[1+s.rng.Intn(s.estLen)] = struct{}{}
	}
	ordered := make([]int, 0, len(points))
	for p := range points {
		ordered = append(ordered, p)
	}
	sort.Ints(ordered)
	for i, p := range ordered {
		s.changes[p] = i + 1
	}
}

// Pick implements exec.Scheduler: run the highest-priority enabled thread;
// at change points, demote it.
func (s *PCT) Pick(v *exec.View) int {
	s.step++
	best := -1
	bestPrio := 0
	for i := range v.Enabled {
		th := v.Enabled[i].Thread
		for int(th) >= len(s.prio) {
			s.prio = append(s.prio, prioSlot{})
		}
		sl := &s.prio[th]
		if !sl.set {
			// New threads draw a random priority above the depth band;
			// collisions are broken by thread ID and are harmless.
			*sl = prioSlot{prio: s.depth + 1 + s.rng.Intn(1<<20), set: true}
		}
		if best < 0 || sl.prio > bestPrio {
			best = i
			bestPrio = sl.prio
		}
	}
	if k, isChange := s.changes[s.step]; isChange {
		s.prio[v.Enabled[best].Thread].prio = s.depth - k
	}
	return best
}

// Executed implements exec.Scheduler.
func (s *PCT) Executed(exec.Event) {}

// End implements exec.Scheduler: adapt the length estimate.
func (s *PCT) End(t *exec.Trace) {
	if n := len(t.Decisions); n > s.estLen {
		s.estLen = n
	}
}
