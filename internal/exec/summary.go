package exec

import "sort"

// Summary is the per-trace feedback digest the fuzzing loop consumes: the
// deduplicated abstract reads-from pairs, the reads-from combination
// signature, and the deduplicated abstract events — all derived in a
// single traversal of the trace and memoized, so Feedback.Observe,
// EventPool.AddTrace, and any TraceObserver share one computation instead
// of re-deriving (and re-sorting) the same data per consumer.
//
// Pairs/PairIDs and Events/EventIDs are parallel slices: PairIDs[i] is
// Pairs[i] interned through Table, likewise EventIDs[i] for Events[i].
// Callers must treat all slices as read-only. A Summary obtained before
// its trace is reclaimed stays valid afterwards: Reclaim detaches the
// summary from the trace and recycles none of its slices.
type Summary struct {
	// Pairs is the trace's abstract reads-from pairs, deduplicated and
	// deterministically sorted (by read, then write).
	Pairs []RFPair
	// PairIDs holds the interned form of Pairs, parallel to it.
	PairIDs []PairID
	// Events is the trace's deduplicated abstract events over shared
	// objects, deterministically sorted.
	Events []AbstractEvent
	// EventIDs holds the interned form of Events, parallel to it.
	EventIDs []EventID
	// Sig is the reads-from combination signature — bit-identical to the
	// historical Trace.RFSignature hash (FNV-1a over the sorted pairs'
	// string encodings), so recorded results and golden files remain
	// comparable across versions.
	Sig uint64
	// Table is the intern table the IDs resolve through: the campaign's
	// shared table when the execution ran with Config.Intern set, or a
	// private per-trace table otherwise.
	Table *InternTable
}

// Summary returns the trace's feedback digest, computing it on first call
// and returning the memoized value afterwards. Not safe for concurrent
// first use; a trace belongs to the goroutine that ran its execution.
func (t *Trace) Summary() *Summary {
	if t.summary == nil {
		t.summary = t.buildSummary()
		t.summaryBuilds++
	}
	return t.summary
}

// summaryBuildCount reports how many times the summary was (re)built —
// the memoization regression guard; it must stay at 1 however many
// consumers read the trace.
func (t *Trace) summaryBuildCount() int { return t.summaryBuilds }

// buildSummary derives pairs, signature, and abstract events in one pass
// over the events. Events intern through their stamped keys, and Pairs
// and Events are projected from the trace's own events, so no string is
// hashed here.
func (t *Trace) buildSummary() *Summary {
	tab := t.intern
	if tab == nil {
		tab = NewInternTable()
		t.intern = tab
	}
	s := &Summary{Table: tab}

	// ids[i] is 1 + the interned ID of event i's abstraction, 0 while
	// unassigned; reads resolve their writer through it in O(1).
	ids := make([]EventID, len(t.Events))
	seenEv := make(map[EventID]struct{}, 64)
	seenPair := make(map[PairID]struct{}, 32)
	for i := range t.Events {
		e := &t.Events[i]
		if e.VarStr == "" {
			continue // spawn/yield/etc. carry no shared object
		}
		ae := e.Abstract()
		id := tab.intern(e.key(), ae)
		ids[i] = id + 1
		if _, dup := seenEv[id]; !dup {
			seenEv[id] = struct{}{}
			s.EventIDs = append(s.EventIDs, id)
			s.Events = append(s.Events, ae)
		}
		if e.Op.ReadsFrom() && e.RF != 0 {
			w := &t.Events[e.RF-1]
			wid := ids[e.RF-1]
			if wid == 0 {
				// The writer precedes its reader in the trace, so its ID
				// was assigned above unless it carries no shared object —
				// intern it directly to stay faithful to the pair set.
				wid = tab.intern(w.key(), w.Abstract()) + 1
				ids[e.RF-1] = wid
			}
			pid := MakePairID(wid-1, id)
			if _, dup := seenPair[pid]; !dup {
				seenPair[pid] = struct{}{}
				s.PairIDs = append(s.PairIDs, pid)
				s.Pairs = append(s.Pairs, RFPair{Write: w.Abstract(), Read: ae})
			}
		}
	}

	sort.Sort(pairsByReadWrite{s.Pairs, s.PairIDs})
	sort.Sort(eventsByAbstract{s.Events, s.EventIDs})

	h := uint64(fnvOffset64)
	for _, p := range s.Pairs {
		h = fnvAbstract(h, p.Write)
		h = fnvAbstract(h, p.Read)
		h = fnvByte(h, 0)
	}
	s.Sig = h
	return s
}

// pairsByReadWrite co-sorts Pairs and PairIDs in the deterministic
// (read, write) order of SortRFPairs.
type pairsByReadWrite struct {
	pairs []RFPair
	ids   []PairID
}

func (s pairsByReadWrite) Len() int { return len(s.pairs) }
func (s pairsByReadWrite) Less(i, j int) bool {
	if s.pairs[i].Read != s.pairs[j].Read {
		return lessAbstract(s.pairs[i].Read, s.pairs[j].Read)
	}
	return lessAbstract(s.pairs[i].Write, s.pairs[j].Write)
}
func (s pairsByReadWrite) Swap(i, j int) {
	s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}

// eventsByAbstract co-sorts Events and EventIDs in lessAbstract order.
type eventsByAbstract struct {
	events []AbstractEvent
	ids    []EventID
}

func (s eventsByAbstract) Len() int           { return len(s.events) }
func (s eventsByAbstract) Less(i, j int) bool { return lessAbstract(s.events[i], s.events[j]) }
func (s eventsByAbstract) Swap(i, j int) {
	s.events[i], s.events[j] = s.events[j], s.events[i]
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
}
