package exec

import (
	"fmt"
	"sort"
	"strings"
)

// Event is one executed step of a concrete schedule: the paper's
// e = <id, t, op(x)@l> extended with the observed/stored value and, for
// reads, the reads-from edge. Fields are laid out so the struct packs
// into 80 bytes: it is appended to the trace and handed to the scheduler
// by value at every step.
type Event struct {
	ID int // 1-based position in the trace
	// Key is the key of the event's abstract event (see EventKey),
	// stamped by the engine; 0 on events built outside an execution.
	Key    EventKey
	VarStr string // stable name of the shared object ("" if none)
	Loc    string // source location of the operation
	Val    int64  // value read or written (reads/writes/init only)
	RF     int    // reads only: trace ID of the write event observed
	Thread ThreadID
	Var    VarID // shared object operated on (0 if none, e.g. spawn/yield)
	// Target is the spawned thread for OpSpawn and the joined thread for
	// OpJoin; 0 otherwise.
	Target ThreadID
	Op     Op
	// Atomic marks the read/write halves of atomic RMWs (CAS,
	// fetch-add, swap): they synchronize rather than race, which the
	// happens-before race detector relies on.
	Atomic bool
	// Ok marks successful channel operations: a receive that observed a
	// sent value (false for the zero value of a closed drained channel)
	// and a try-send/try-recv that went through. False elsewhere.
	Ok bool
}

// Abstract projects the concrete event to its abstract event op(x)@loc.
func (e Event) Abstract() AbstractEvent {
	return AbstractEvent{Op: e.Op, Var: e.VarStr, Loc: e.Loc}
}

// key returns the stamped Key, deriving it for an event built outside an
// execution.
func (e *Event) key() EventKey {
	if e.Key != 0 {
		return e.Key
	}
	return KeyOf(e.Abstract())
}

// String renders the event compactly for logs and test diagnostics.
func (e Event) String() string {
	s := fmt.Sprintf("#%d t%d %s", e.ID, e.Thread, e.Op)
	if e.VarStr != "" {
		s += "(" + e.VarStr + ")"
	}
	if e.Loc != "" {
		s += "@" + e.Loc
	}
	switch {
	case e.Op.IsRead():
		s += fmt.Sprintf("=%d<-#%d", e.Val, e.RF)
	case e.Op.IsWrite():
		s += fmt.Sprintf("=%d", e.Val)
	case e.Op == OpRecv || e.Op == OpTryRecv:
		s += fmt.Sprintf("=%d,ok=%t<-#%d", e.Val, e.Ok, e.RF)
	case e.Op == OpSend || e.Op == OpTrySend:
		s += fmt.Sprintf("=%d", e.Val)
		if e.Op == OpTrySend {
			s += fmt.Sprintf(",ok=%t", e.Ok)
		}
	case e.Op == OpSpawn || e.Op == OpJoin:
		s += fmt.Sprintf("->t%d", e.Target)
	}
	return s
}

// Trace is the concrete schedule observed by one execution: the ordered
// event sequence plus the reads-from function (stored on the read events
// themselves).
type Trace struct {
	Events []Event
	// Decisions records the thread chosen at each scheduling point, in
	// order. Unlike Events it is exactly one entry per scheduler Pick
	// (an RMW records two events for one decision), so feeding it to a
	// replay scheduler reproduces the trace.
	Decisions []ThreadID

	// intern resolves abstract events to dense IDs in the memoized
	// summary: the campaign-shared table when the execution ran with
	// Config.Intern, a lazily created private table otherwise.
	intern *InternTable
	// summary memoizes the single-pass feedback digest (pairs, signature,
	// abstract events) so every consumer shares one derivation.
	summary       *Summary
	summaryBuilds int
}

// Len returns the number of events in the trace.
func (t *Trace) Len() int { return len(t.Events) }

// Event returns the event with trace ID id (1-based).
func (t *Trace) Event(id int) Event { return t.Events[id-1] }

// RFPairs returns the abstract reads-from pairs of the trace, one per read
// event, deduplicated and sorted deterministically. This is the feedback
// signal of the fuzzer: an execution is interesting when it exhibits a pair
// never seen before. The slice is the memoized Summary's and must not be
// mutated.
func (t *Trace) RFPairs() []RFPair { return t.Summary().Pairs }

// SortRFPairs orders pairs deterministically (by read then write).
func SortRFPairs(pairs []RFPair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Read != pairs[j].Read {
			return lessAbstract(pairs[i].Read, pairs[j].Read)
		}
		return lessAbstract(pairs[i].Write, pairs[j].Write)
	})
}

func lessAbstract(a, b AbstractEvent) bool {
	if a.Var != b.Var {
		return a.Var < b.Var
	}
	if a.Loc != b.Loc {
		return a.Loc < b.Loc
	}
	return a.Op < b.Op
}

// RFSignature hashes the trace's reads-from combination — the set of
// abstract reads-from pairs — to a single value. Two reads-from equivalent
// executions have equal signatures; the fuzzer's power schedule counts how
// often each signature has been observed (the paper's f(alpha)), and the
// Figure 5 experiment plots the frequency distribution of signatures.
func (t *Trace) RFSignature() uint64 { return t.Summary().Sig }

// HashRFPair hashes one reads-from pair; the commutative combination of
// pair hashes (XOR) is the state abstraction used by the Q-Learning-RF
// baseline (Section 5.5). The hash is inline FNV-1a over the pair's string
// encoding — allocation-free, and bit-identical to the historical
// hash/fnv-based implementation.
func HashRFPair(p RFPair) uint64 {
	h := fnvAbstract(uint64(fnvOffset64), p.Write)
	h = fnvByte(h, 1)
	return fnvAbstract(h, p.Read)
}

// AbstractEvents returns the deduplicated, deterministically ordered
// abstract events observed by the trace. The fuzzer accumulates these into
// its event pool E, from which mutation constraints are drawn. The slice
// is the memoized Summary's and must not be mutated.
func (t *Trace) AbstractEvents() []AbstractEvent { return t.Summary().Events }

// ThreadOrder returns a copy of the scheduling decisions of the run;
// feeding it to a replay scheduler reproduces the trace exactly.
func (t *Trace) ThreadOrder() []ThreadID {
	order := make([]ThreadID, len(t.Decisions))
	copy(order, t.Decisions)
	return order
}

// String renders the whole trace, one event per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
