package exec

import "sync"

// EventID is the dense identifier of an interned AbstractEvent, assigned
// in first-intern order starting at 0. A table that one goroutine fills
// (a sequential campaign) assigns identical IDs across runs; a table that
// several shards fill concurrently assigns them in racy order. Either
// way an EventID is an equality token, like the EventKey it is interned
// from: nothing may order by one. Feedback state keys on EventIDs (and on
// PairIDs built from them) instead of multi-string structs, which turns
// the hot-path map operations of the fuzzing loop into integer hashing.
type EventID uint32

// PairID packs an abstract reads-from pair into a single comparable word:
// the interned write event in the high 32 bits, the read in the low 32.
// Two pairs interned through the same table are equal iff their PairIDs
// are.
type PairID uint64

// MakePairID packs (write, read) into a PairID.
func MakePairID(write, read EventID) PairID {
	return PairID(write)<<32 | PairID(read)
}

// WriteID returns the interned write event of the pair.
func (p PairID) WriteID() EventID { return EventID(p >> 32) }

// ReadID returns the interned read event of the pair.
func (p PairID) ReadID() EventID { return EventID(p & 0xffffffff) }

// InternTable maps abstract events to dense EventIDs, keyed by the
// EventKey the engine stamps on every event, so interning hashes one
// integer and no strings. A campaign shares one table across all of its
// executions (the fuzzer threads it through exec.Config), shards
// included, so abstract-event identities — and everything keyed on them —
// survive across executions as plain integers. A hit takes only the read
// lock, so concurrent shards contend only on first sightings.
type InternTable struct {
	mu     sync.RWMutex
	ids    map[EventKey]EventID
	events []AbstractEvent
}

// NewInternTable returns an empty table.
func NewInternTable() *InternTable {
	return &InternTable{ids: make(map[EventKey]EventID, 64)}
}

// Intern returns the dense ID of ae, assigning the next free ID on first
// sight.
func (t *InternTable) Intern(ae AbstractEvent) EventID { return t.intern(KeyOf(ae), ae) }

// intern returns the ID of the abstract event ae, whose key is k.
func (t *InternTable) intern(k EventKey, ae AbstractEvent) EventID {
	t.mu.RLock()
	id, ok := t.ids[k]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[k]; ok {
		return id
	}
	id = EventID(len(t.events))
	t.ids[k] = id
	t.events = append(t.events, ae)
	return id
}

// Len returns the number of distinct events interned so far.
func (t *InternTable) Len() int {
	t.mu.RLock()
	n := len(t.events)
	t.mu.RUnlock()
	return n
}

// Events returns a snapshot of the interned events in ID order —
// events[i] is the event with EventID i. Used by determinism tests and
// diagnostics.
func (t *InternTable) Events() []AbstractEvent {
	t.mu.RLock()
	out := append([]AbstractEvent(nil), t.events...)
	t.mu.RUnlock()
	return out
}

// FNV-1a, inlined over strings so hashing the hot path's abstract events
// allocates nothing: hash/fnv's Write takes []byte, and converting the
// Var/Loc strings per call was a measurable share of the observe phase.
// The constants and byte order match hash/fnv.New64a exactly, keeping
// every signature bit-identical to the pre-interning implementation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds s into the running FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fnvByte folds one byte into the running FNV-1a state h.
func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// fnvAbstract folds an abstract event's (Var, Op, Loc) encoding into h —
// the per-event unit of the signature and pair-hash streams.
func fnvAbstract(h uint64, ae AbstractEvent) uint64 {
	h = fnvString(h, ae.Var)
	h = fnvByte(h, byte(ae.Op))
	return fnvString(h, ae.Loc)
}
