package exec

import "fmt"

// Program is the body of a virtual thread. The main program and every
// spawned thread have this signature; all interaction with shared state
// goes through the Thread parameter.
type Program func(t *Thread)

// tstate tracks a thread's lifecycle from the engine's perspective.
type tstate uint8

const (
	tRunning tstate = iota + 1 // executing PUT code; the engine is inside its carrier's next
	tParked                    // parked at a pending event
	tExited                    // body returned (or was aborted)
)

// abortPanic is the sentinel thrown through PUT code to unwind threads when
// the engine tears an execution down.
type abortPanic struct{}

// Thread is a virtual thread handle: the API surface PUT code uses for all
// shared-state interaction. Every method that touches shared state parks
// the thread's carrier coroutine until the engine's scheduler grants the
// step, so each call is one scheduling point (one instrumented instruction
// in the paper's terms).
type Thread struct {
	id   ThreadID
	name string
	eng  *Engine
	body Program

	seq     int
	pending Pending
	state   tstate
	car     *carrier // coroutine hosting the body; nil before OpBegin and after exit

	// engine-managed blocking state
	signaled bool    // condition wait has been signaled; may reacquire
	exited   bool    // body returned
	newObj   *object // object being registered by an OpVarInit park
	newChild *Thread // child being registered by an OpSpawn park

	// channel rendezvous transfer slot: a sender executing against this
	// parked receiver (a plain recv or a select with a matching recv
	// case) deposits the value here; the receiver's pending becomes
	// enabled and completes the handoff when scheduled.
	chanMatched bool
	chanVal     int64
	chanRF      int // trace ID of the matching send event
	chanCase    int // select case index the match bound (0 for plain recv)

	// results handed back by the engine on grant
	retVal   int64
	retOK    bool
	retRecvd bool // TryRecv: a receive happened (value or closed), vs would-block
	retCase  int  // Select: index of the fired case
}

// ID returns the thread's ID (main is 1; children numbered in spawn order).
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's name as given at spawn.
func (t *Thread) Name() string { return t.name }

// park publishes the pending event and suspends the thread's carrier until
// the engine grants the step (or aborts the execution).
func (t *Thread) park(p Pending) {
	t.seq++
	p.Thread = t.id
	p.Seq = t.seq
	t.pending = p
	if !t.car.yield(struct{}{}) || t.eng.abort {
		panic(abortPanic{})
	}
}

// goexitMsg is the FailPanic message for a thread body that called
// runtime.Goexit (for instance testing.T.FailNow inside a PUT).
const goexitMsg = "runtime.Goexit in thread body"

// run executes the thread body on its carrier, converting stray panics and
// runtime.Goexit into crash failures. The engine runs only inside the
// carrier's next call, so recording the failure here is race-free.
func (t *Thread) run() {
	returned := false
	defer func() {
		r := recover()
		goexit := r == nil && !returned
		if goexit {
			r = goexitMsg
		}
		if r != nil {
			if _, ok := r.(abortPanic); !ok && !t.eng.abort && t.eng.failure == nil {
				t.eng.failure = &Failure{
					Kind:   FailPanic,
					Msg:    fmt.Sprint(r),
					Thread: t.id,
				}
			}
		}
		t.exited = true
		if goexit {
			// Letting the Goexit unwind the carrier would make iter.Pull
			// re-raise it in the engine's goroutine. Suspend mid-unwind
			// instead; releaseCarrier finishes it on a throwaway goroutine.
			t.car.goexited = true
			t.car.yield(struct{}{})
		}
	}()
	t.body(t)
	returned = true
}

// --- shared-object creation -------------------------------------------------

// NewVar creates a shared integer variable initialized to init. Creation
// records the synthetic initial write event (the reads-from source for
// reads observing the initial value). Names must be unique per execution.
func (t *Thread) NewVar(name string, init int64) *Var {
	o := &object{kind: objVar, name: name, val: init}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1), Val: init})
	return &Var{obj: o, eng: t.eng}
}

// NewVars creates n shared variables named name[0..n-1], all initialized to
// init — the engine's analogue of a shared array.
func (t *Thread) NewVars(name string, n int, init int64) []*Var {
	loc := callerLoc(1)
	vars := make([]*Var, n)
	for i := range vars {
		nm := fmt.Sprintf("%s[%d]", name, i)
		o := &object{kind: objVar, name: nm, val: init}
		t.newObj = o
		t.park(Pending{Op: OpVarInit, VarName: nm, Loc: loc, Val: init})
		vars[i] = &Var{obj: o, eng: t.eng}
	}
	return vars
}

// NewMutex creates a mutex. Names must be unique per execution.
func (t *Thread) NewMutex(name string) *Mutex {
	o := &object{kind: objMutex, name: name}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1)})
	return &Mutex{obj: o, eng: t.eng}
}

// NewCond creates a condition variable bound to m.
func (t *Thread) NewCond(name string, m *Mutex) *Cond {
	o := &object{kind: objCond, name: name, mutex: m}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1)})
	return &Cond{obj: o, eng: t.eng}
}

// --- memory operations --------------------------------------------------------

// Read loads the variable's current value. One scheduling point; records a
// read event whose reads-from edge points at the last write.
func (t *Thread) Read(v *Var) int64 {
	t.park(Pending{Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: callerLoc(1)})
	return t.retVal
}

// ReadAt is Read with an explicit source location, for PUT helpers that
// want call-site-independent abstract events.
func (t *Thread) ReadAt(v *Var, loc string) int64 {
	t.park(Pending{Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: loc})
	return t.retVal
}

// Write stores val into the variable. One scheduling point.
func (t *Thread) Write(v *Var, val int64) {
	t.park(Pending{Op: OpWrite, Var: v.obj.id, VarName: v.obj.name, Loc: callerLoc(1), Val: val})
}

// WriteAt is Write with an explicit source location.
func (t *Thread) WriteAt(v *Var, val int64, loc string) {
	t.park(Pending{Op: OpWrite, Var: v.obj.id, VarName: v.obj.name, Loc: loc, Val: val})
}

// AddAt is Add with an explicit source location for both halves.
func (t *Thread) AddAt(v *Var, delta int64, loc string) int64 {
	t.park(Pending{Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: loc})
	nv := t.retVal + delta
	t.park(Pending{Op: OpWrite, Var: v.obj.id, VarName: v.obj.name, Loc: loc, Val: nv})
	return nv
}

// CASAt is CAS with an explicit source location.
func (t *Thread) CASAt(v *Var, old, new int64, loc string) (int64, bool) {
	t.park(Pending{
		Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: loc,
		RMW: RMWCAS, CASOld: old, Val: new,
	})
	return t.retVal, t.retOK
}

// AtomicAddAt is AtomicAdd with an explicit source location.
func (t *Thread) AtomicAddAt(v *Var, delta int64, loc string) int64 {
	t.park(Pending{
		Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: loc,
		RMW: RMWAdd, Val: delta,
	})
	return t.retVal
}

// Add performs a NON-atomic increment: a read scheduling point followed by
// an independent write scheduling point, exactly like a compiled `x += d`
// (load; add; store). Other threads may interleave between the halves —
// the classic lost-update race.
func (t *Thread) Add(v *Var, delta int64) int64 {
	loc := callerLoc(1)
	t.park(Pending{Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: loc})
	nv := t.retVal + delta
	t.park(Pending{Op: OpWrite, Var: v.obj.id, VarName: v.obj.name, Loc: loc, Val: nv})
	return nv
}

// CAS performs an atomic compare-and-swap: one scheduling point recording a
// read event and, iff the read value equals old, a write event with no
// preemption in between. Returns the observed value and whether the swap
// happened.
func (t *Thread) CAS(v *Var, old, new int64) (int64, bool) {
	t.park(Pending{
		Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: callerLoc(1),
		RMW: RMWCAS, CASOld: old, Val: new,
	})
	return t.retVal, t.retOK
}

// AtomicAdd performs an atomic fetch-and-add in one scheduling point,
// returning the previous value.
func (t *Thread) AtomicAdd(v *Var, delta int64) int64 {
	t.park(Pending{
		Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: callerLoc(1),
		RMW: RMWAdd, Val: delta,
	})
	return t.retVal
}

// AtomicSwap atomically exchanges the variable's value in one scheduling
// point, returning the previous value.
func (t *Thread) AtomicSwap(v *Var, new int64) int64 {
	t.park(Pending{
		Op: OpRead, Var: v.obj.id, VarName: v.obj.name, Loc: callerLoc(1),
		RMW: RMWSwap, Val: new,
	})
	return t.retVal
}

// --- synchronization ----------------------------------------------------------

// Lock acquires the mutex; the pending lock is enabled only while the mutex
// is free, so contention is a genuine scheduling choice.
func (t *Thread) Lock(m *Mutex) {
	t.park(Pending{Op: OpLock, Var: m.obj.id, VarName: m.obj.name, Loc: callerLoc(1)})
}

// LockAt is Lock with an explicit source location.
func (t *Thread) LockAt(m *Mutex, loc string) {
	t.park(Pending{Op: OpLock, Var: m.obj.id, VarName: m.obj.name, Loc: loc})
}

// Unlock releases the mutex. Unlocking a mutex the thread does not hold is
// reported as a crash (undefined behaviour in pthreads).
func (t *Thread) Unlock(m *Mutex) {
	t.park(Pending{Op: OpUnlock, Var: m.obj.id, VarName: m.obj.name, Loc: callerLoc(1)})
}

// UnlockAt is Unlock with an explicit source location.
func (t *Thread) UnlockAt(m *Mutex, loc string) {
	t.park(Pending{Op: OpUnlock, Var: m.obj.id, VarName: m.obj.name, Loc: loc})
}

// Wait atomically releases the condition's mutex and blocks until signaled,
// then reacquires the mutex before returning (two events: OpWait and
// OpLockRe). The caller must hold the mutex.
func (t *Thread) Wait(c *Cond) {
	loc := callerLoc(1)
	t.park(Pending{Op: OpWait, Var: c.obj.id, VarName: c.obj.name, Loc: loc})
	t.signaled = false
	t.park(Pending{Op: OpLockRe, Var: c.obj.mutex.obj.id, VarName: c.obj.mutex.obj.name, Loc: loc})
}

// WaitAt is Wait with an explicit source location.
func (t *Thread) WaitAt(c *Cond, loc string) {
	t.park(Pending{Op: OpWait, Var: c.obj.id, VarName: c.obj.name, Loc: loc})
	t.signaled = false
	t.park(Pending{Op: OpLockRe, Var: c.obj.mutex.obj.id, VarName: c.obj.mutex.obj.name, Loc: loc})
}

// Signal wakes the longest-waiting thread blocked on the condition, if any;
// a signal with no waiters is lost (pthread semantics — the source of
// several SCTBench bugs).
func (t *Thread) Signal(c *Cond) {
	t.park(Pending{Op: OpSignal, Var: c.obj.id, VarName: c.obj.name, Loc: callerLoc(1)})
}

// SignalAt is Signal with an explicit source location.
func (t *Thread) SignalAt(c *Cond, loc string) {
	t.park(Pending{Op: OpSignal, Var: c.obj.id, VarName: c.obj.name, Loc: loc})
}

// Broadcast wakes all threads currently blocked on the condition.
func (t *Thread) Broadcast(c *Cond) {
	t.park(Pending{Op: OpBroadcast, Var: c.obj.id, VarName: c.obj.name, Loc: callerLoc(1)})
}

// BroadcastAt is Broadcast with an explicit source location.
func (t *Thread) BroadcastAt(c *Cond, loc string) {
	t.park(Pending{Op: OpBroadcast, Var: c.obj.id, VarName: c.obj.name, Loc: loc})
}

// --- threads -------------------------------------------------------------------

// Go spawns a child thread executing body. The child is created parked at
// its OpBegin event; its body runs only once the scheduler picks it.
func (t *Thread) Go(name string, body Program) *Thread {
	child := &Thread{name: name, eng: t.eng, body: body}
	t.newChild = child
	t.park(Pending{Op: OpSpawn, Loc: callerLoc(1)})
	return child
}

// Join blocks until the child thread has finished; enabled only once the
// target has exited.
func (t *Thread) Join(child *Thread) {
	t.park(Pending{Op: OpJoin, Loc: callerLoc(1), Target: child.id})
}

// JoinAll joins each thread in order.
func (t *Thread) JoinAll(children ...*Thread) {
	loc := callerLoc(1)
	for _, c := range children {
		t.park(Pending{Op: OpJoin, Loc: loc, Target: c.id})
	}
}

// Yield is a pure scheduling point (sched_yield analogue).
func (t *Thread) Yield() {
	t.park(Pending{Op: OpYield, Loc: callerLoc(1)})
}

// YieldAt is Yield with an explicit source location.
func (t *Thread) YieldAt(loc string) {
	t.park(Pending{Op: OpYield, Loc: loc})
}

// --- oracles --------------------------------------------------------------------

// Assert checks a PUT invariant over already-read (thread-local) values.
// A passing assert is not a scheduling point; a failing assert ends the
// execution with an assertion-violation failure — the paper's primary bug
// oracle.
func (t *Thread) Assert(cond bool, msg string) {
	if cond {
		return
	}
	t.park(Pending{Op: OpFail, Loc: callerLoc(1), FailKind: FailAssert, FailMsg: msg})
}

// AssertAt is Assert with an explicit source location for the failure
// event, so interpreted programs (internal/progen) get per-statement
// abstract events instead of one shared interpreter call site.
func (t *Thread) AssertAt(cond bool, msg, loc string) {
	if cond {
		return
	}
	t.park(Pending{Op: OpFail, Loc: loc, FailKind: FailAssert, FailMsg: msg})
}

// Assertf is Assert with formatted message construction on failure only.
func (t *Thread) Assertf(cond bool, format string, args ...any) {
	if cond {
		return
	}
	t.park(Pending{Op: OpFail, Loc: callerLoc(1), FailKind: FailAssert, FailMsg: fmt.Sprintf(format, args...)})
}

// FailMemory reports a simulated memory-safety violation (use-after-free,
// null dereference, double free) — the crash oracle for the ConVul-style
// programs.
func (t *Thread) FailMemory(msg string) {
	t.park(Pending{Op: OpFail, Loc: callerLoc(1), FailKind: FailMemory, FailMsg: msg})
}

// Fail reports an explicit crash with the given kind.
func (t *Thread) Fail(kind FailureKind, msg string) {
	t.park(Pending{Op: OpFail, Loc: callerLoc(1), FailKind: kind, FailMsg: msg})
}

// --- reader-writer locks --------------------------------------------------------

// NewRWMutex creates a reader-writer lock. Names must be unique per
// execution.
func (t *Thread) NewRWMutex(name string) *RWMutex {
	o := &object{kind: objRWMutex, name: name}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1)})
	return &RWMutex{obj: o, eng: t.eng}
}

// RLock acquires the lock in shared mode; enabled while no writer holds
// it (readers never block each other).
func (t *Thread) RLock(m *RWMutex) {
	t.park(Pending{Op: OpRLock, Var: m.obj.id, VarName: m.obj.name, Loc: callerLoc(1)})
}

// RLockAt is RLock with an explicit source location.
func (t *Thread) RLockAt(m *RWMutex, loc string) {
	t.park(Pending{Op: OpRLock, Var: m.obj.id, VarName: m.obj.name, Loc: loc})
}

// RUnlock releases a shared hold.
func (t *Thread) RUnlock(m *RWMutex) {
	t.park(Pending{Op: OpRUnlock, Var: m.obj.id, VarName: m.obj.name, Loc: callerLoc(1)})
}

// RUnlockAt is RUnlock with an explicit source location.
func (t *Thread) RUnlockAt(m *RWMutex, loc string) {
	t.park(Pending{Op: OpRUnlock, Var: m.obj.id, VarName: m.obj.name, Loc: loc})
}

// WLock acquires the lock exclusively; enabled only once every reader and
// writer has released.
func (t *Thread) WLock(m *RWMutex) {
	t.park(Pending{Op: OpWLock, Var: m.obj.id, VarName: m.obj.name, Loc: callerLoc(1)})
}

// WLockAt is WLock with an explicit source location.
func (t *Thread) WLockAt(m *RWMutex, loc string) {
	t.park(Pending{Op: OpWLock, Var: m.obj.id, VarName: m.obj.name, Loc: loc})
}

// WUnlock releases the exclusive hold.
func (t *Thread) WUnlock(m *RWMutex) {
	t.park(Pending{Op: OpWUnlock, Var: m.obj.id, VarName: m.obj.name, Loc: callerLoc(1)})
}

// WUnlockAt is WUnlock with an explicit source location.
func (t *Thread) WUnlockAt(m *RWMutex, loc string) {
	t.park(Pending{Op: OpWUnlock, Var: m.obj.id, VarName: m.obj.name, Loc: loc})
}

// TryLock attempts to acquire the mutex without blocking, reporting
// whether it succeeded. The attempt is a scheduling point either way.
func (t *Thread) TryLock(m *Mutex) bool {
	t.park(Pending{Op: OpTryLock, Var: m.obj.id, VarName: m.obj.name, Loc: callerLoc(1)})
	return t.retOK
}

// --- semaphores ------------------------------------------------------------------

// NewSemaphore creates a counting semaphore with the given initial count.
func (t *Thread) NewSemaphore(name string, initial int64) *Semaphore {
	o := &object{kind: objSemaphore, name: name, val: initial}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1), Val: initial})
	return &Semaphore{obj: o, eng: t.eng}
}

// SemWait decrements the semaphore, blocking while the count is zero
// (sem_wait).
func (t *Thread) SemWait(s *Semaphore) {
	t.park(Pending{Op: OpSemWait, Var: s.obj.id, VarName: s.obj.name, Loc: callerLoc(1)})
}

// SemPost increments the semaphore, potentially unblocking a waiter
// (sem_post).
func (t *Thread) SemPost(s *Semaphore) {
	t.park(Pending{Op: OpSemPost, Var: s.obj.id, VarName: s.obj.name, Loc: callerLoc(1)})
}

// --- barriers ---------------------------------------------------------------------

// NewBarrier creates a barrier for the given number of parties.
func (t *Thread) NewBarrier(name string, parties int) *Barrier {
	o := &object{kind: objBarrier, name: name, val: int64(parties)}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1), Val: int64(parties)})
	return &Barrier{obj: o, eng: t.eng}
}

// BarrierWait joins the barrier, blocking until all parties have arrived
// (pthread_barrier_wait).
func (t *Thread) BarrierWait(b *Barrier) {
	t.park(Pending{Op: OpBarrier, Var: b.obj.id, VarName: b.obj.name, Loc: callerLoc(1)})
}

// --- channels ---------------------------------------------------------------------

// NewChan creates a channel with the given buffer capacity (0 =
// unbuffered rendezvous). Names must be unique per execution.
func (t *Thread) NewChan(name string, capacity int) *Chan {
	if capacity < 0 {
		capacity = 0
	}
	o := &object{kind: objChan, name: name, cap: capacity}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1), Val: int64(capacity)})
	return &Chan{obj: o, eng: t.eng}
}

// Send sends v on the channel: on an unbuffered channel it blocks until a
// receiver is parked on the channel (rendezvous), on a buffered channel
// until there is capacity. Sending on a closed channel crashes with
// FailSendClosed, matching Go.
func (t *Thread) Send(c *Chan, v int64) {
	t.park(Pending{Op: OpSend, Var: c.obj.id, VarName: c.obj.name, Loc: callerLoc(1), Val: v})
}

// SendAt is Send with an explicit source location.
func (t *Thread) SendAt(c *Chan, v int64, loc string) {
	t.park(Pending{Op: OpSend, Var: c.obj.id, VarName: c.obj.name, Loc: loc, Val: v})
}

// Recv receives from the channel, blocking until a value is available or
// the channel is closed. Like Go's v, ok := <-ch it returns the value and
// whether it was a real send (false: closed and drained, v is 0).
func (t *Thread) Recv(c *Chan) (int64, bool) {
	t.park(Pending{Op: OpRecv, Var: c.obj.id, VarName: c.obj.name, Loc: callerLoc(1)})
	return t.retVal, t.retOK
}

// RecvAt is Recv with an explicit source location.
func (t *Thread) RecvAt(c *Chan, loc string) (int64, bool) {
	t.park(Pending{Op: OpRecv, Var: c.obj.id, VarName: c.obj.name, Loc: loc})
	return t.retVal, t.retOK
}

// Close closes the channel. Parked senders become enabled and crash with
// FailSendClosed when scheduled; receivers drain the buffer and then
// observe (0, false). Closing twice crashes with FailCloseClosed.
func (t *Thread) Close(c *Chan) {
	t.park(Pending{Op: OpClose, Var: c.obj.id, VarName: c.obj.name, Loc: callerLoc(1)})
}

// CloseAt is Close with an explicit source location.
func (t *Thread) CloseAt(c *Chan, loc string) {
	t.park(Pending{Op: OpClose, Var: c.obj.id, VarName: c.obj.name, Loc: loc})
}

// TrySend attempts a non-blocking send (select { case ch <- v: default: }),
// reporting whether the value was delivered. On an unbuffered channel it
// succeeds only against a parked receiver. Sending on a closed channel
// crashes even when non-blocking, matching Go.
func (t *Thread) TrySend(c *Chan, v int64) bool {
	t.park(Pending{Op: OpTrySend, Var: c.obj.id, VarName: c.obj.name, Loc: callerLoc(1), Val: v})
	return t.retOK
}

// TrySendAt is TrySend with an explicit source location.
func (t *Thread) TrySendAt(c *Chan, v int64, loc string) bool {
	t.park(Pending{Op: OpTrySend, Var: c.obj.id, VarName: c.obj.name, Loc: loc, Val: v})
	return t.retOK
}

// TryRecv attempts a non-blocking receive. recvd reports whether a
// receive happened at all (would-block: false); ok distinguishes a sent
// value from the zero value of a closed drained channel. An unbuffered
// channel only yields closure this way: the engine's rendezvous is
// sender-active, so a non-blocking receive never pairs with a blocked
// sender (see DESIGN.md §15).
func (t *Thread) TryRecv(c *Chan) (v int64, ok, recvd bool) {
	t.park(Pending{Op: OpTryRecv, Var: c.obj.id, VarName: c.obj.name, Loc: callerLoc(1)})
	return t.retVal, t.retOK, t.retRecvd
}

// TryRecvAt is TryRecv with an explicit source location.
func (t *Thread) TryRecvAt(c *Chan, loc string) (v int64, ok, recvd bool) {
	t.park(Pending{Op: OpTryRecv, Var: c.obj.id, VarName: c.obj.name, Loc: loc})
	return t.retVal, t.retOK, t.retRecvd
}

// Select blocks until one of the cases can fire, then fires exactly one —
// deterministically the lowest-index ready case, so a (program, schedule)
// pair always fires the same arm and replay is exact. It returns the
// fired case's index, and for receive cases the received value and ok
// flag (Go's v, ok := <-ch). There is no default case: express
// non-blocking arms with TrySend/TryRecv.
func (t *Thread) Select(cases ...SelectCase) (idx int, v int64, ok bool) {
	return t.SelectAt(callerLoc(1), cases...)
}

// SelectAt is Select with an explicit source location, recorded on
// whichever case event fires.
func (t *Thread) SelectAt(loc string, cases ...SelectCase) (idx int, v int64, ok bool) {
	if len(cases) == 0 {
		panic("exec: select with no cases")
	}
	names := make([]byte, 0, 16)
	for i, c := range cases {
		if i > 0 {
			names = append(names, ',')
		}
		names = append(names, c.Ch.obj.name...)
	}
	t.park(Pending{Op: OpSelect, VarName: string(names), Loc: loc, Cases: cases})
	return t.retCase, t.retVal, t.retOK
}

// --- wait groups ------------------------------------------------------------------

// NewWaitGroup creates a WaitGroup with a zero counter. Names must be
// unique per execution.
func (t *Thread) NewWaitGroup(name string) *WaitGroup {
	o := &object{kind: objWaitGroup, name: name}
	t.newObj = o
	t.park(Pending{Op: OpVarInit, VarName: name, Loc: callerLoc(1)})
	return &WaitGroup{obj: o, eng: t.eng}
}

// WgAdd moves the WaitGroup counter by delta. A negative counter crashes,
// matching sync.WaitGroup.
func (t *Thread) WgAdd(w *WaitGroup, delta int64) {
	t.park(Pending{Op: OpWgAdd, Var: w.obj.id, VarName: w.obj.name, Loc: callerLoc(1), Val: delta})
}

// WgAddAt is WgAdd with an explicit source location.
func (t *Thread) WgAddAt(w *WaitGroup, delta int64, loc string) {
	t.park(Pending{Op: OpWgAdd, Var: w.obj.id, VarName: w.obj.name, Loc: loc, Val: delta})
}

// WgDone is WgAdd(-1).
func (t *Thread) WgDone(w *WaitGroup) {
	t.park(Pending{Op: OpWgAdd, Var: w.obj.id, VarName: w.obj.name, Loc: callerLoc(1), Val: -1})
}

// WgDoneAt is WgDone with an explicit source location.
func (t *Thread) WgDoneAt(w *WaitGroup, loc string) {
	t.park(Pending{Op: OpWgAdd, Var: w.obj.id, VarName: w.obj.name, Loc: loc, Val: -1})
}

// WgWait blocks until the WaitGroup counter is zero. Its event reads-from
// the counter update (or init) that released it.
func (t *Thread) WgWait(w *WaitGroup) {
	t.park(Pending{Op: OpWgWait, Var: w.obj.id, VarName: w.obj.name, Loc: callerLoc(1)})
}

// WgWaitAt is WgWait with an explicit source location.
func (t *Thread) WgWaitAt(w *WaitGroup, loc string) {
	t.park(Pending{Op: OpWgWait, Var: w.obj.id, VarName: w.obj.name, Loc: loc})
}
