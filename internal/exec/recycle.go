package exec

// Recycler carries reusable buffers and size hints across executions of
// the same program. Traces of one program have near-identical event and
// thread counts from run to run, so a campaign that threads a Recycler
// through exec.Config (and returns each finished trace via Reclaim) runs
// every execution after the first into pre-sized, already-allocated
// backing arrays instead of growing them from zero.
//
// A Recycler serves one execution at a time: never share one across
// concurrently running executions. It may outlive its campaign and serve
// another program's — a run reads nothing from it but capacities and
// size hints, so reuse changes allocations, never results.
type Recycler struct {
	events    []Event
	decisions []ThreadID

	// The engine's enabled set, handed to the scheduler as View.Enabled.
	// Wide programs would otherwise grow it again from nil in every
	// execution.
	enabled []*Pending

	// Size hints recorded at the end of each run; the next run pre-sizes
	// its thread table, object registry, and trace from them.
	prevThreads int
	prevObjs    int
	prevSteps   int
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler { return &Recycler{} }

// take hands the pooled trace arrays to a starting engine (nil slices on
// first use) and detaches them from the recycler so a missing Reclaim can
// never alias two traces.
func (r *Recycler) take() (events []Event, decisions []ThreadID) {
	events, decisions = r.events[:0:cap(r.events)], r.decisions[:0:cap(r.decisions)]
	r.events, r.decisions = nil, nil
	return events, decisions
}

// takeEnabled hands the pooled enabled-set array to a starting engine,
// detached like take's arrays.
func (r *Recycler) takeEnabled() []*Pending {
	enabled := r.enabled
	r.enabled = nil
	return enabled
}

// record stores the finished engine's sizes as hints for the next run and
// takes back its enabled-set array. The array is cleared to its full
// capacity first, so the pool keeps no PUT threads alive between
// executions.
func (r *Recycler) record(threads, objs, steps int, enabled []*Pending) {
	r.prevThreads, r.prevObjs, r.prevSteps = threads, objs, steps
	clear(enabled[:cap(enabled)])
	r.enabled = enabled[:0]
}

// Reclaim returns t's backing arrays to the recycler and invalidates the
// trace: after Reclaim, the trace and any slices obtained from its Events
// or Decisions must no longer be used. A *Summary obtained before Reclaim
// stays valid — Reclaim detaches it from the trace rather than recycling
// it — so a caller may keep the summary past the trace. Call Reclaim once
// every consumer of the trace itself is done — the fuzzer does so at the
// end of each iteration, after the observer, feedback and pool have run.
// A nil trace is a no-op.
func (r *Recycler) Reclaim(t *Trace) {
	if t == nil {
		return
	}
	r.events = t.Events[:0:cap(t.Events)]
	r.decisions = t.Decisions[:0:cap(t.Decisions)]
	t.Events, t.Decisions = nil, nil
	t.summary = nil
}
