package systematic

import "rff/internal/exec"

// ICBLists returns the preemption lists the ICB scheduler visits, in
// order, after a baseline of baseLen steps that saw threads 1..threads,
// each preemption as a {step, target} pair.
func ICBLists(threads, baseLen, maxBound int) [][][2]int {
	s := NewICB(maxBound).(*icbScheduler)
	s.maxThread, s.steps = exec.ThreadID(threads), baseLen
	var out [][][2]int
	for s.End(nil); !s.exhausted; s.End(nil) {
		ps := make([][2]int, len(s.preemptions))
		for i, p := range s.preemptions {
			ps[i] = [2]int{p.step, int(p.target)}
		}
		out = append(out, ps)
	}
	return out
}
