package exec

// RMWKind distinguishes the atomic read-modify-write flavours. An RMW is a
// single scheduling point that records a read event followed (possibly
// conditionally, for CAS) by a write event with no preemption in between,
// matching the atomicity of the underlying hardware instruction.
type RMWKind uint8

const (
	// RMWNone marks a plain (non-RMW) operation.
	RMWNone RMWKind = iota
	// RMWCAS is compare-and-swap: the write happens iff the read value
	// equals the expected value.
	RMWCAS
	// RMWAdd is atomic fetch-and-add.
	RMWAdd
	// RMWSwap is atomic exchange.
	RMWSwap
)

// Pending describes the event a parked thread is about to execute. The
// engine exposes the enabled Pendings to the Scheduler each step; picking
// one grants its thread a single step.
//
// Fields are laid out so the struct packs into 128 bytes. Each thread's
// Pending is built in place when it parks and never copied after: the
// View hands schedulers pointers to it, and every per-event loop reads it
// through them.
type Pending struct {
	Thread ThreadID
	Var    VarID
	Seq    int // thread-local op counter; (Thread, Seq) identifies this event instance

	// Key is the key of the abstract event the pending instantiates
	// (Abstract()). WriteKey is the key of the event under which it
	// would be recorded as a reads-from source, 0 if it is none: Key
	// itself for a plain write and for lock-word updates (lock, relock,
	// unlock, wait — later acquisitions read-from the recorded lock
	// event), channel sends and closes, and WaitGroup adds; the store
	// half's key for an RMW.
	Key      EventKey
	WriteKey EventKey

	VarName string
	Loc     string
	Val     int64 // value to write (writes), delta (RMWAdd), new value (RMWSwap/CAS)

	// CASOld is the expected value of an RMWCAS.
	CASOld int64

	// FailMsg and FailKind describe the failure of an OpFail pending.
	FailMsg string

	// Cases holds the channel cases of an OpSelect pending (Var is 0; a
	// select targets several channels at once).
	Cases []SelectCase

	Target ThreadID
	Op     Op

	// RMW marks an atomic read-modify-write (Op is OpRead for all RMWs;
	// IsWriteLike additionally holds so conflict detection sees the
	// store half).
	RMW      RMWKind
	FailKind FailureKind
}

// SelectCase is one arm of a deterministic select: a send of Val on Ch,
// or a receive from Ch. Build cases with SendCase and RecvCase.
type SelectCase struct {
	Ch   *Chan
	Send bool
	Val  int64
}

// SendCase returns a select arm that sends v on ch.
func SendCase(ch *Chan, v int64) SelectCase { return SelectCase{Ch: ch, Send: true, Val: v} }

// RecvCase returns a select arm that receives from ch.
func RecvCase(ch *Chan) SelectCase { return SelectCase{Ch: ch} }

// Abstract projects the pending operation to the abstract event it would
// instantiate if executed. For RMWs this is the read half; WriteKey
// identifies the store half.
func (p *Pending) Abstract() AbstractEvent {
	return AbstractEvent{Op: p.Op, Var: p.VarName, Loc: p.Loc}
}

// writeKey derives WriteKey from Key (see Pending).
func (p *Pending) writeKey() EventKey {
	switch {
	case p.Op == OpWrite, p.Op == OpLock, p.Op == OpLockRe, p.Op == OpUnlock, p.Op == OpWait,
		p.Op == OpSend, p.Op == OpClose, p.Op == OpWgAdd:
		return p.Key
	case p.RMW != RMWNone:
		return p.Key.withOp(OpWrite)
	}
	return 0
}

// IsWriteLike reports whether executing the pending acts as a reads-from
// source on its variable (stores, RMWs, and lock-word updates).
func (p *Pending) IsWriteLike() bool {
	return p.Op == OpWrite || p.RMW != RMWNone || p.Op.ActsAsWrite() && p.Op != OpVarInit
}

// IsReadLike reports whether executing the pending carries a reads-from
// edge (loads, RMWs, and lock acquisitions).
func (p *Pending) IsReadLike() bool { return p.Op.ReadsFrom() }

// View is the scheduler's window onto the engine state at one scheduling
// decision: the enabled pending events (in deterministic thread-ID order)
// plus read-only queries about variables and the execution so far.
type View struct {
	// Step is the number of events executed so far.
	Step int
	// Enabled lists the enabled pending events, ordered by thread ID.
	// Each points at its parked thread's own pending, which the engine
	// overwrites when that thread next parks.
	Enabled []*Pending

	eng *Engine
}

// LastWriteKey returns the key of the most recent reads-from source on
// the shared object with key x — the last write for a data variable, the
// last lock-word update for a mutex (the synthetic init event if
// untouched). For a channel it is the event the *next* receive would
// read-from: the send at the head of the buffer, or the close once
// drained — the definition the proactive constraint machines need to
// judge whether a target send is currently observable. It returns 0 if
// no such object (or source) exists yet.
func (v *View) LastWriteKey(x VarKey) EventKey {
	o := v.eng.objByKey[x]
	if o == nil {
		return 0
	}
	id := o.lastWrite
	if o.kind == objChan {
		switch {
		case len(o.buf) > 0:
			id = o.buf[0].src
		case o.closed:
			id = o.closeEv
		default:
			return 0
		}
	}
	if id == 0 {
		return 0
	}
	return v.eng.trace.Events[id-1].Key
}

// Races reports whether two pending events conflict: both target the same
// shared variable with at least one write half, from different threads —
// or contend for the same mutex. This is the racing relation used by POS
// to reset priority scores.
func Races(a, b *Pending) bool {
	if a.Thread == b.Thread || a.Var == 0 || a.Var != b.Var {
		return false
	}
	if a.Op == OpLock && b.Op == OpLock {
		return true
	}
	if a.Op.IsChannel() && b.Op.IsChannel() {
		// Every pair of channel operations on the same channel conflicts:
		// even two receives compete for the same queue elements, so their
		// order is observable. (Selects have Var 0 and never reach here.)
		return true
	}
	dataA := a.IsReadLike() || a.IsWriteLike()
	dataB := b.IsReadLike() || b.IsWriteLike()
	return dataA && dataB && (a.IsWriteLike() || b.IsWriteLike())
}

// Scheduler decides, at every step of an execution, which enabled pending
// event runs next. Implementations include uniform random walk, POS, PCT,
// the Q-Learning-RF baseline, and RFF's proactive reads-from scheduler.
//
// The engine drives a scheduler through one execution as:
//
//	Begin(seed); { Pick(view); Executed(event) }*; End(trace)
//
// A scheduler instance may keep cross-execution state (PCT's length
// estimates, Q-Learning's table); per-execution state must be reset in
// Begin.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Begin starts a new execution with the given randomness seed.
	Begin(seed int64)
	// Pick returns the index into v.Enabled of the event to execute.
	// The engine guarantees len(v.Enabled) > 0 and treats out-of-range
	// returns as a scheduler bug (panic). The View, its Enabled slice and
	// the Pendings it points at are engine-owned and read-only, valid
	// only for the duration of the call: the engine keeps the slice as
	// its enabled set and rewrites a Pending when its thread parks again.
	// Schedulers must copy (the fields of) anything they keep, never a
	// *Pending.
	Pick(v *View) int
	// Executed reports the event (or, for RMWs, the read half followed
	// by a second call with the write half) that just ran.
	Executed(ev Event)
	// End reports the completed trace of the execution.
	End(t *Trace)
}
