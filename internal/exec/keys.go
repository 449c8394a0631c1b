package exec

import (
	"fmt"
	"sync"
)

// EventKey is the integer identity of an abstract event op(x)@l inside a
// running process: two abstract events are equal iff their keys are. The
// engine stamps the key on every Pending (and the store half's key on
// RMWs and other reads-from sources) when a thread parks, and on every
// recorded Event, so a scheduler matching pendings against abstract
// events compares integers instead of {Op, Var, Loc} string triples.
//
// Keys are handed out in first-sight order from process-wide tables. The
// tables are process-wide so that a scheduler resolving its constraints
// and every engine stamping events agree without threading a table
// through, as callerLoc's PC cache already is. First-sight order is racy
// when several campaigns or shards run concurrently, so keys are equality
// tokens only: nothing may order by a key, iterate in key order, serialise
// one, or derive a hash from one. InternTable looks keys up to assign
// EventIDs in first-intern order; an ID never depends on a key's value.
//
// The layout is loc<<32 | var<<8 | op. Every location, including "",
// has a nonzero loc key, so no key of a real event is 0; 0 stands for
// "no event".
type EventKey uint64

// VarKey is the integer identity of a shared object's stable name; 0 is
// the empty name (events on no object).
type VarKey uint32

// locKey is the integer identity of a location string.
type locKey uint32

// maxVarKey bounds VarKeys to the 24 bits EventKey reserves for them.
const maxVarKey = 1<<24 - 1

func makeEventKey(op Op, v VarKey, l locKey) EventKey {
	return EventKey(l)<<32 | EventKey(v)<<8 | EventKey(op)
}

// Var returns the key of the shared object the event operates on.
func (k EventKey) Var() VarKey { return VarKey(k>>8) & maxVarKey }

// loc returns the key of the event's location.
func (k EventKey) loc() locKey { return locKey(k >> 32) }

// withOp returns the key of the abstract event with k's object and
// location and operation op.
func (k EventKey) withOp(op Op) EventKey { return k&^0xff | EventKey(op) }

// KeyOf returns the key of ae, entering its name and location into the
// process-wide tables on first sight.
func KeyOf(ae AbstractEvent) EventKey {
	return makeEventKey(ae.Op, VarKeyOf(ae.Var), locKeyOf(ae.Loc))
}

// VarKeyOf returns the key of the shared-object name, entering it into
// the process-wide table on first sight.
func VarKeyOf(name string) VarKey {
	if name == "" {
		return 0
	}
	return VarKey(varKeys.key(name))
}

// locKeyOf returns the key of a location string. Events get theirs from
// their Site, resolved once by SiteAt or cached by callerLoc; this string
// lookup serves those two and KeyOf.
func locKeyOf(loc string) locKey { return locKey(locKeys.key(loc)) }

var (
	varKeys = keyTable{what: "shared-object name", max: maxVarKey}
	locKeys = keyTable{what: "location", max: 1<<32 - 1}
)

// keyTable assigns dense nonzero keys to strings. Lookups of known
// strings take no lock; the mutex only serialises first sightings.
type keyTable struct {
	ids  sync.Map // string -> uint32
	mu   sync.Mutex
	n    uint32
	what string
	max  uint32
}

func (t *keyTable) key(s string) uint32 {
	if v, ok := t.ids.Load(s); ok {
		return v.(uint32)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.ids.Load(s); ok {
		return v.(uint32)
	}
	if t.n == t.max {
		panic(fmt.Sprintf("exec: more than %d distinct %ss", t.max, t.what))
	}
	t.n++
	t.ids.Store(s, t.n)
	return t.n
}
