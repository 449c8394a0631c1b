// Package exec implements a deterministic, user-mode controlled-concurrency
// execution engine: the substrate on which the RFF schedule fuzzer and all
// baseline schedulers run.
//
// The engine plays the role of the paper's E9Patch instrumentation plus the
// libsched.so user-mode scheduler: every shared-memory access and
// synchronization operation performed by a program under test (PUT) is a
// serialized scheduling point. A PUT is an ordinary Go function written
// against the Thread API (Read, Write, Lock, Unlock, Wait, Signal, Go, Join,
// Assert, ...). Each virtual thread runs on a coroutine (an iter.Pull
// "carrier", pooled across executions) that yields back to the engine at
// every API call, publishing the event it is about to execute; the engine
// computes the set of enabled pending events, asks a pluggable Scheduler to
// pick one, and switches into the chosen thread until its next call.
// Exactly one PUT thread runs at any instant, so execution is fully
// serialized, sequentially consistent, and — for a deterministic scheduler
// and fixed seed — bit-for-bit reproducible.
//
// The engine records a Trace of events together with the reads-from function
// (each read is mapped to the write event it observed), detects deadlocks
// (live threads with no enabled event), converts assertion failures and
// PUT panics into structured Failures, and enforces a step budget against
// livelock.
package exec

// ThreadID identifies a virtual thread within one execution. The main
// thread is always thread 1; children are numbered in spawn order, which is
// deterministic for a deterministic scheduler.
type ThreadID int32

// VarID identifies a shared object (variable, mutex, or condition variable)
// within one execution. IDs are assigned in creation order.
type VarID int32

// Op enumerates the kinds of events the engine intercepts. Every Op is a
// scheduling point.
type Op uint8

const (
	// OpNone is the zero Op; it never appears in a trace.
	OpNone Op = iota
	// OpVarInit is the synthetic initial write recorded when a shared
	// variable is created. It is the reads-from source for reads that
	// observe the initial value (the paper's "w(b)@l1" initial write).
	OpVarInit
	// OpRead is a shared-memory load.
	OpRead
	// OpWrite is a shared-memory store.
	OpWrite
	// OpLock acquires a mutex; enabled only while the mutex is free.
	OpLock
	// OpUnlock releases a mutex; always enabled for the holder.
	OpUnlock
	// OpWait atomically releases a mutex and blocks on a condition
	// variable. The subsequent reacquisition appears as OpLockRe.
	OpWait
	// OpLockRe reacquires the mutex after a condition wait; enabled only
	// once the thread has been signaled and the mutex is free.
	OpLockRe
	// OpSignal wakes (at most) one condition-variable waiter. A signal
	// with no waiters is lost, matching pthread semantics.
	OpSignal
	// OpBroadcast wakes all current condition-variable waiters.
	OpBroadcast
	// OpSpawn creates a child thread. The child starts parked at OpBegin.
	OpSpawn
	// OpBegin is the first event of every spawned thread (thread start).
	OpBegin
	// OpJoin waits for a target thread to finish; enabled once it has.
	OpJoin
	// OpYield is a pure scheduling point with no semantic effect.
	OpYield
	// OpFail is the pending marker for a failing assertion or explicit
	// failure; it ends the execution and is recorded as the final event.
	OpFail
	// OpTryLock attempts a mutex acquisition without blocking; always
	// enabled, it acquires when the mutex is free and fails otherwise.
	OpTryLock
	// OpRLock acquires a reader-writer lock in shared mode; enabled
	// while no writer holds the lock.
	OpRLock
	// OpRUnlock releases a shared hold.
	OpRUnlock
	// OpWLock acquires a reader-writer lock exclusively; enabled while
	// no reader or writer holds it.
	OpWLock
	// OpWUnlock releases the exclusive hold.
	OpWUnlock
	// OpSemWait decrements a semaphore; enabled while the count is
	// positive.
	OpSemWait
	// OpSemPost increments a semaphore; always enabled.
	OpSemPost
	// OpBarrier joins a barrier; enabled once the final participant has
	// arrived (the engine releases all waiters in arrival order).
	OpBarrier
	// OpSend sends a value on a channel. On an unbuffered channel it is
	// enabled only while a receiver is parked on the channel (rendezvous);
	// on a buffered channel while there is capacity. Sending on a closed
	// channel crashes with FailSendClosed, matching Go.
	OpSend
	// OpRecv receives from a channel; enabled once a value has been
	// delivered (rendezvous match or buffered element) or the channel is
	// closed. A receive from a closed, drained channel reads-from the
	// close event and observes the zero value.
	OpRecv
	// OpClose closes a channel; always enabled. Closing an already-closed
	// channel crashes with FailCloseClosed.
	OpClose
	// OpTrySend is a non-blocking send attempt (select-with-default's send
	// arm); always enabled, it delivers when the send would not block and
	// is a recorded no-op otherwise.
	OpTrySend
	// OpTryRecv is a non-blocking receive attempt; always enabled, with
	// three outcomes: a value, closed-and-drained, or would-block.
	OpTryRecv
	// OpSelect is the pending marker for a deterministic select over
	// channel cases. It never appears in a trace: executing a select
	// records the OpSend/OpRecv event of the case it fires.
	OpSelect
	// OpWgAdd adjusts a WaitGroup counter (Done is Add(-1)); always
	// enabled. Dropping the counter below zero crashes, matching Go.
	OpWgAdd
	// OpWgWait blocks until a WaitGroup counter is zero; its event
	// reads-from the counter update (or init) that released it.
	OpWgWait
)

var opNames = [...]string{
	OpNone:      "none",
	OpVarInit:   "init",
	OpRead:      "r",
	OpWrite:     "w",
	OpLock:      "lock",
	OpUnlock:    "unlock",
	OpWait:      "wait",
	OpLockRe:    "relock",
	OpSignal:    "signal",
	OpBroadcast: "broadcast",
	OpSpawn:     "spawn",
	OpBegin:     "begin",
	OpJoin:      "join",
	OpYield:     "yield",
	OpFail:      "fail",
	OpTryLock:   "trylock",
	OpRLock:     "rlock",
	OpRUnlock:   "runlock",
	OpWLock:     "wlock",
	OpWUnlock:   "wunlock",
	OpSemWait:   "semwait",
	OpSemPost:   "sempost",
	OpBarrier:   "barrier",
	OpSend:      "send",
	OpRecv:      "recv",
	OpClose:     "close",
	OpTrySend:   "trysend",
	OpTryRecv:   "tryrecv",
	OpSelect:    "select",
	OpWgAdd:     "wgadd",
	OpWgWait:    "wgwait",
}

// NumOps is the number of defined ops (including OpNone); valid ops are
// Op(1) .. Op(NumOps-1). Consumers that enumerate the vocabulary (e.g.
// artifact decoding) range over this instead of naming the last op.
const NumOps = len(opNames)

// String returns the short mnemonic used in traces and abstract events.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// IsWrite reports whether the op stores to a shared variable (including the
// synthetic initial write).
func (o Op) IsWrite() bool { return o == OpWrite || o == OpVarInit }

// IsRead reports whether the op loads from a shared variable.
func (o Op) IsRead() bool { return o == OpRead }

// ReadsFrom reports whether events of this op carry a reads-from edge.
// Besides memory loads this includes blocking acquisitions of sync words:
// at the binary level a mutex/rwlock/semaphore is a shared word, and a
// pthread lock reads the state the previous release (or the initializer)
// wrote — the paper's instrumentation intercepts exactly those accesses,
// which is what lets RFF steer acquisition order with reads-from
// constraints. (A successful OpTryLock also carries an edge; a failed one
// does not.) Channel receives read-from the send that produced the value
// (or the close, when drained), and a WaitGroup wait reads-from the
// counter update that released it — so channel and WaitGroup
// communication is visible to the reads-from feedback exactly like
// memory. (A would-block OpTryRecv carries no edge.)
func (o Op) ReadsFrom() bool {
	switch o {
	case OpRead, OpLock, OpLockRe, OpWLock, OpRLock, OpSemWait, OpTryLock,
		OpRecv, OpTryRecv, OpWgWait:
		return true
	}
	return false
}

// ActsAsWrite reports whether events of this op can be the source of a
// reads-from edge: memory stores, variable initialization, the sync-word
// updates performed by acquisitions and releases, channel sends and
// closes, and WaitGroup counter updates.
func (o Op) ActsAsWrite() bool {
	switch o {
	case OpWrite, OpVarInit, OpLock, OpLockRe, OpUnlock, OpWait,
		OpWLock, OpWUnlock, OpRLock, OpRUnlock, OpSemWait, OpSemPost, OpTryLock,
		OpSend, OpTrySend, OpClose, OpWgAdd:
		return true
	}
	return false
}

// IsChannel reports whether the op targets a channel.
func (o Op) IsChannel() bool {
	switch o {
	case OpSend, OpRecv, OpClose, OpTrySend, OpTryRecv, OpSelect:
		return true
	}
	return false
}

// AbstractEvent is the paper's abstract event e_a = op(x)@loc: an operation,
// the shared object it targets (by stable name, so identities survive across
// executions), and the source location of the access. A concrete Event
// instantiates an AbstractEvent when all three fields agree.
type AbstractEvent struct {
	Op  Op
	Var string
	Loc string
}

// String renders the abstract event as op(x)@loc.
func (a AbstractEvent) String() string {
	return a.Op.String() + "(" + a.Var + ")@" + a.Loc
}

// IsZero reports whether a is the zero AbstractEvent.
func (a AbstractEvent) IsZero() bool { return a.Op == OpNone && a.Var == "" && a.Loc == "" }

// RFPair is one reads-from observation: the read event and the write event
// it observed its value from, both abstracted. The set of RFPairs of an
// execution is the paper's reads-from function restricted to abstract
// events; two executions with equal event sets and equal RFPair sets are
// reads-from equivalent.
type RFPair struct {
	Write AbstractEvent
	Read  AbstractEvent
}

// String renders the pair as "w(x)@l1 -rf-> r(x)@l2".
func (p RFPair) String() string {
	return p.Write.String() + " -rf-> " + p.Read.String()
}
