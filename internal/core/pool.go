package core

import (
	"math/rand"
	"sort"

	"rff/internal/exec"
)

// EventPool is the fuzzer's set E of abstract events observed across all
// executions so far, organized per shared variable so that mutation can
// draw *potentially conflicting* (write, read) pairs to form reads-from
// constraints. Events are kept in first-observation order, which is
// deterministic for a deterministic campaign.
//
// Membership is tracked by interned EventID — integer map keys — with the
// per-variable lists still holding AbstractEvent values for the mutator.
type EventPool struct {
	// intern is the table the EventID keys resolve through, adopted from
	// the first added trace.
	intern *exec.InternTable
	seen   map[exec.EventID]struct{}
	reads  map[string][]exec.AbstractEvent // var name -> read abstract events
	writes map[string][]exec.AbstractEvent // var name -> write abstract events (incl. init)
	// pairedVars lists variables that have at least one read and one
	// write in the pool, i.e. can produce a constraint.
	pairedVars []string
	isPaired   map[string]bool
}

// NewEventPool returns an empty pool.
func NewEventPool() *EventPool {
	return &EventPool{
		seen:     make(map[exec.EventID]struct{}, 128),
		reads:    make(map[string][]exec.AbstractEvent, 16),
		writes:   make(map[string][]exec.AbstractEvent, 16),
		isPaired: make(map[string]bool, 16),
	}
}

// AddTrace folds a trace's abstract events into the pool, reusing the
// trace's memoized Summary (shared with Feedback.Observe) instead of
// re-deriving the event set.
func (p *EventPool) AddTrace(t *exec.Trace) { p.AddSummary(t.Summary()) }

// AddSummary folds one execution's summarized abstract events into the
// pool — AddTrace's body, and Campaign.Fold's path.
func (p *EventPool) AddSummary(s *exec.Summary) {
	if p.intern == nil {
		p.intern = s.Table
	}
	if s.Table == p.intern {
		for i, id := range s.EventIDs {
			p.add(id, s.Events[i])
		}
	} else {
		// Foreign table (trace executed without the campaign's shared
		// intern table): re-intern for comparable IDs. Slow path.
		for _, ae := range s.Events {
			p.add(p.intern.Intern(ae), ae)
		}
	}
}

func (p *EventPool) add(id exec.EventID, ae exec.AbstractEvent) {
	if _, dup := p.seen[id]; dup {
		return
	}
	// Lock acquisitions are both reads-from sinks and sources (the lock
	// word is read and overwritten), so they join both lists; unlocks,
	// waits and initializers are sources only.
	sink := ae.Op.ReadsFrom()
	source := ae.Op.ActsAsWrite()
	if !sink && !source {
		return // pure sync markers (signal, spawn, ...) form no constraints
	}
	p.seen[id] = struct{}{}
	if sink {
		p.reads[ae.Var] = append(p.reads[ae.Var], ae)
	}
	if source {
		p.writes[ae.Var] = append(p.writes[ae.Var], ae)
	}
	if !p.isPaired[ae.Var] && len(p.reads[ae.Var]) > 0 && len(p.writes[ae.Var]) > 0 {
		p.isPaired[ae.Var] = true
		p.pairedVars = append(p.pairedVars, ae.Var)
	}
}

// Size returns the number of distinct abstract events in the pool.
func (p *EventPool) Size() int { return len(p.seen) }

// Vars returns the variables that can currently produce constraints,
// sorted for deterministic inspection.
func (p *EventPool) Vars() []string {
	out := append([]string(nil), p.pairedVars...)
	sort.Strings(out)
	return out
}

// RandomConstraint draws a uniformly random positive constraint
// w --rf--> r over a random variable with conflicting events. ok is false
// while the pool has no (write, read) pair on any variable.
func (p *EventPool) RandomConstraint(rng *rand.Rand) (Constraint, bool) {
	if len(p.pairedVars) == 0 {
		return Constraint{}, false
	}
	v := p.pairedVars[rng.Intn(len(p.pairedVars))]
	ws := p.writes[v]
	rs := p.reads[v]
	return Constraint{
		Write: ws[rng.Intn(len(ws))],
		Read:  rs[rng.Intn(len(rs))],
	}, true
}
