// Package systematic provides the two enumerative baselines of the
// evaluation, each a stateful exec.Scheduler that walks a finite tree
// of schedules one execution at a time:
//
//   - NewDFS — an exhaustive depth-first enumeration of the scheduling
//     decision tree: the stand-in for the GenMC stateless model checker.
//     Precise and complete on small programs, hopeless on wide ones,
//     exactly as in the paper's table (where GenMC errors out or is
//     omitted on most subjects).
//
//   - NewICB — deterministic iterative preemption bounding over a
//     non-preemptive baseline schedule, preferring recently spawned
//     threads as preemption targets: the stand-in for PERIOD's systematic
//     periodical exploration (strong on shallow bugs, paying a large
//     schedule cost on wide programs).
//
// Each execution's End advances the scheduler to its next leaf, and
// Exhausted reports when the tree is used up. campaign.SchedulerTool
// runs both like any other scheduler; Explore drives the DFS scheduler
// to count reads-from classes and to collect conformance ground truth.
package systematic

import (
	"context"

	"rff/internal/exec"
)

// ExploreOptions bounds the exhaustive enumeration.
type ExploreOptions struct {
	// MaxExecutions caps the number of schedules explored. Required.
	MaxExecutions int
	// MaxSteps bounds each execution (0 = engine default).
	MaxSteps int
	// OnExecution, if non-nil, is invoked with every counted execution's
	// result before its trace is reclaimed — the visitor the conformance
	// harness uses to collect the full enumerated behavior set. The
	// callback must not retain the result's trace (its backing arrays are
	// recycled into the next execution); cancelled partial executions are
	// never reported.
	OnExecution func(res *exec.Result)
}

// ExploreReport summarizes an exhaustive enumeration.
type ExploreReport struct {
	// Executions is the number of schedules run.
	Executions int
	// Classes counts the distinct reads-from equivalence classes
	// observed — the quantity partial-order and reads-from reduction
	// techniques exploit (exponentially fewer classes than schedules).
	Classes int
	// Complete reports whether the whole decision tree was enumerated
	// within the budget.
	Complete bool
}

// forced replays a fixed prefix of decision indices, then always picks the
// first enabled event, recording the branching width at every step; End
// advances the prefix to the next unexplored leaf in depth-first
// lexicographic order.
type forced struct {
	prefix    []int
	pos       int
	widths    []int
	exhausted bool
}

// NewDFS returns the depth-first enumerator behind GenMC*: its first
// execution takes the leftmost leaf, each later one the next leaf in
// lexicographic order, until Exhausted. The seed is ignored.
func NewDFS() exec.Scheduler { return &forced{} }

func (f *forced) Name() string     { return "DFS" }
func (f *forced) Begin(seed int64) { f.pos = 0; f.widths = f.widths[:0] }
func (f *forced) Pick(v *exec.View) int {
	choice := 0
	if f.pos < len(f.prefix) {
		choice = f.prefix[f.pos]
		if choice >= len(v.Enabled) {
			// The tree shifted under a diverging prefix; clamp. This
			// cannot happen for prefixes harvested from real runs.
			choice = len(v.Enabled) - 1
		}
	}
	f.widths = append(f.widths, len(v.Enabled))
	f.pos++
	return choice
}
func (f *forced) Executed(exec.Event) {}

// End advances to the next leaf: the deepest step with an untried
// sibling takes that sibling, and everything below it starts over from
// the first choice.
func (f *forced) End(*exec.Trace) {
	n := len(f.widths)
	if len(f.prefix) > n {
		f.prefix = f.prefix[:n]
	}
	for len(f.prefix) < n {
		f.prefix = append(f.prefix, 0)
	}
	i := n - 1
	for i >= 0 && f.prefix[i]+1 >= f.widths[i] {
		i--
	}
	if i < 0 {
		f.exhausted = true
		return
	}
	f.prefix = f.prefix[:i+1]
	f.prefix[i]++
}

// Exhausted reports that every leaf has been executed.
func (f *forced) Exhausted() bool { return f.exhausted }

// Explore exhaustively enumerates the scheduling tree of the program in
// depth-first lexicographic order.
func Explore(name string, prog exec.Program, opts ExploreOptions) *ExploreReport {
	return ExploreContext(context.Background(), name, prog, opts)
}

// ExploreContext is Explore under a context: cancellation stops the
// in-flight execution within one scheduling step and returns the
// enumeration state reached so far (a cancelled partial execution is
// discarded, so the report is a prefix of the uninterrupted one).
func ExploreContext(ctx context.Context, name string, prog exec.Program, opts ExploreOptions) *ExploreReport {
	if opts.MaxExecutions <= 0 {
		panic("systematic.Explore: MaxExecutions must be positive")
	}
	rep := &ExploreReport{}
	classes := make(map[uint64]struct{})
	sched := &forced{}
	// Signatures of all enumerated traces resolve through one table, and
	// trace arrays recycle between executions.
	intern := exec.NewInternTable()
	recycler := exec.NewRecycler()
	for rep.Executions < opts.MaxExecutions && !sched.exhausted {
		res := exec.Run(name, prog, exec.Config{
			Scheduler: sched,
			Ctx:       ctx,
			MaxSteps:  opts.MaxSteps,
			Intern:    intern,
			Recycle:   recycler,
		})
		if res.Cancelled {
			// The abandoned run advanced the tree from a partial
			// execution, so neither its leaf nor the tree's exhaustion
			// counts; report the state reached before it.
			recycler.Reclaim(res.Trace)
			rep.Classes = len(classes)
			return rep
		}
		rep.Executions++
		classes[res.Trace.RFSignature()] = struct{}{}
		if opts.OnExecution != nil {
			opts.OnExecution(res)
		}
		recycler.Reclaim(res.Trace)
	}
	rep.Complete = sched.exhausted
	rep.Classes = len(classes)
	return rep
}

// preemption forces a switch to a target thread at (or as soon as possible
// after) a given step of the run.
type preemption struct {
	step   int
	target exec.ThreadID
}

// icbScheduler runs non-preemptively (current thread keeps running while
// enabled), applying the current preemption list in order. A preemption
// whose target is not yet enabled stays armed until it is.
//
// Its first execution is the bound-0 baseline, which fixes the thread
// universe and the schedule length (both deterministic). Bound k+1 then
// extends every bound-k schedule with one more forced switch: End steps
// an odometer through every list of k preemptions at strictly
// increasing steps in [0, baseLen], each position trying targets in
// reverse spawn order (most recently created threads first, mirroring
// PERIOD's bias toward exercising late-spawned checker threads early)
// and, per target, steps in ascending order.
type icbScheduler struct {
	maxBound int

	// Per-execution state.
	preemptions []preemption
	nextP       int
	step        int
	current     exec.ThreadID
	maxThread   exec.ThreadID
	steps       int

	// Enumeration state, fixed by the baseline.
	started   bool
	nThreads  exec.ThreadID
	baseLen   int
	exhausted bool
}

// NewICB returns the preemption-bounding enumerator behind PERIOD*,
// exploring bounds 0 through maxBound. The seed is ignored.
func NewICB(maxBound int) exec.Scheduler { return &icbScheduler{maxBound: maxBound} }

func (s *icbScheduler) Name() string { return "ICB" }
func (s *icbScheduler) Begin(seed int64) {
	s.nextP = 0
	s.step = 0
	s.current = 0
	s.steps = 0
	s.maxThread = 0
}

func (s *icbScheduler) Pick(v *exec.View) int {
	defer func() { s.step++ }()
	for _, p := range v.Enabled {
		if p.Thread > s.maxThread {
			s.maxThread = p.Thread
		}
	}
	// Armed preemption: switch as soon as the target is enabled.
	if s.nextP < len(s.preemptions) && s.step >= s.preemptions[s.nextP].step {
		want := s.preemptions[s.nextP].target
		for i, p := range v.Enabled {
			if p.Thread == want {
				s.nextP++
				s.current = want
				return i
			}
		}
	}
	// Keep running the current thread while it is enabled.
	for i, p := range v.Enabled {
		if p.Thread == s.current {
			return i
		}
	}
	// Current thread blocked or exited: fall to the lowest-ID enabled.
	s.current = v.Enabled[0].Thread
	return 0
}
func (s *icbScheduler) Executed(exec.Event) { s.steps++ }

// End moves to the next preemption list: the first list of bound 1
// after the baseline, the successor within the current bound, or the
// first list of the next bound once the current one is used up.
func (s *icbScheduler) End(*exec.Trace) {
	if !s.started {
		s.started = true
		s.nThreads = s.maxThread
		s.baseLen = s.steps
	} else if s.advance() {
		return
	}
	s.exhausted = !s.first(len(s.preemptions) + 1)
}

// first sets the first preemption list of bound k — the most recent
// thread at steps 0..k-1 — and reports false when bound k has no list.
// A bound with no list leaves every higher bound empty too.
func (s *icbScheduler) first(k int) bool {
	if k > s.maxBound || k > s.baseLen+1 || s.nThreads == 0 {
		return false
	}
	s.preemptions = s.preemptions[:0]
	for i := 0; i < k; i++ {
		s.preemptions = append(s.preemptions, preemption{step: i, target: s.nThreads})
	}
	return true
}

// advance steps the odometer to the next list of the same bound and
// reports false when the bound is used up. The last position turns
// fastest; a position that can turn no further carries into the one
// before it, and every position after a turned one restarts at its
// first target and lowest step.
func (s *icbScheduler) advance() bool {
	ps := s.preemptions
	k := len(ps)
	for i := k - 1; i >= 0; i-- {
		// The k-1-i positions after i each need a later step.
		switch {
		case ps[i].step < s.baseLen-(k-1-i):
			ps[i].step++
		case ps[i].target > 1:
			ps[i].target--
			ps[i].step = 0
			if i > 0 {
				ps[i].step = ps[i-1].step + 1
			}
		default:
			continue
		}
		for j := i + 1; j < k; j++ {
			ps[j] = preemption{step: ps[j-1].step + 1, target: s.nThreads}
		}
		return true
	}
	return false
}

// Exhausted reports that every preemption list up to the bound has been
// executed.
func (s *icbScheduler) Exhausted() bool { return s.exhausted }
