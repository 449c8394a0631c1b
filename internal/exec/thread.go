package exec

import (
	"fmt"
	"strconv"
)

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
// in the paper's terms). Each event method X has a form XAt that takes the
// event's Site first; X is XAt at its caller's location (see Site).
type Thread struct {
	id   ThreadID
	name string
	eng  *Engine
	body Program

	seq     int
	pending Pending
	car     *carrier // coroutine hosting the body; nil before OpBegin and after exit

	// engine-managed blocking state
	newObj   *object // object being registered by an OpVarInit park
	newChild *Thread // child being registered by an OpSpawn park
	state    tstate
	signaled bool // condition wait has been signaled; may reacquire
	released bool // parked at a barrier its final arrival has opened
	exited   bool // body returned

	// enabled-set bookkeeping (see settle): ready reports that the thread
	// is in the enabled set; waiting is the list it is parked on (an
	// object's parked list, a join target's joiners, or the engine's
	// selects), linked through wnext and wprev; joiners lists the threads
	// parked joining this one.
	ready        bool
	waiting      *waitList
	wnext, wprev *Thread
	joiners      waitList

	// channel rendezvous transfer slot: a sender executing against this
	// parked receiver (a plain recv or a select with a matching recv
	// case) deposits the value here; the receiver's pending becomes
	// enabled and completes the handoff when scheduled.
	chanVal     int64
	chanRF      int // trace ID of the matching send event
	chanCase    int // select case index the match bound (0 for plain recv)
	chanMatched bool

	// results handed back by the engine on grant
	retOK    bool
	retRecvd bool // TryRecv: a receive happened (value or closed), vs would-block
	retVal   int64
	retCase  int // Select: index of the fired case
}

// ID returns the thread's ID (main is 1; children numbered in spawn order).
func (t *Thread) ID() ThreadID { return t.id }

// Name returns the thread's name as given at spawn.
func (t *Thread) Name() string { return t.name }

// park publishes the pending event op, which takes no operands, on
// shared object o (nil for none) at location l, and suspends the thread
// until the engine grants the step (see publish).
func (t *Thread) park(op Op, o *object, l Site) {
	t.pend(op)
	t.publish(o, l)
}

// pend starts the thread's next pending event, op, in place, and returns
// it for the caller to fill in the operands before publish. The engine's
// enabled set points at the pending, so it is never copied.
func (t *Thread) pend(op Op) *Pending {
	t.pending = Pending{Op: op}
	return &t.pending
}

// publish publishes the pending event started by pend — on shared object
// o (nil for none) at location l — and suspends the thread's carrier
// until the engine grants the step (or aborts the execution). It stamps
// the pending's keys from o's and l's, so parking hashes no string; only
// a select, whose pending names all its channels, looks its name up. A
// zero l would stamp location key 0, which stands for "no event", so it
// panics.
func (t *Thread) publish(o *object, l Site) {
	if l.key == 0 {
		panic("exec: event at the zero Site; resolve sites with exec.SiteAt")
	}
	p := &t.pending
	var vk VarKey
	switch {
	case o != nil:
		p.Var, p.VarName, vk = o.id, o.name, o.key
	case p.VarName != "":
		vk = VarKeyOf(p.VarName)
	}
	p.Loc = l.loc
	p.Key = makeEventKey(p.Op, vk, l.key)
	p.WriteKey = p.writeKey()
	t.seq++
	p.Thread = t.id
	p.Seq = t.seq
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

// create registers the new shared object o at location l: one OpVarInit
// scheduling point recording val as the object's initial value. The
// object's key is looked up here, once per object, so that every later
// operation on it parks without touching the name.
func (t *Thread) create(o *object, l Site, val int64) {
	o.key = VarKeyOf(o.name)
	t.newObj = o
	t.pend(OpVarInit).Val = val
	t.publish(o, l)
}

// NewVar creates a shared integer variable initialized to init. Creation
// records the synthetic initial write event (the reads-from source for
// reads observing the initial value). Names must be unique per execution.
func (t *Thread) NewVar(name string, init int64) *Var { return t.NewVarAt(callerLoc(1), name, init) }

// NewVarAt is NewVar at site s.
func (t *Thread) NewVarAt(s Site, name string, init int64) *Var {
	o := &object{kind: objVar, name: name, val: init}
	t.create(o, s, init)
	return &Var{obj: o, eng: t.eng}
}

// NewVars creates n shared variables named name[0..n-1], all initialized to
// init — the engine's analogue of a shared array.
func (t *Thread) NewVars(name string, n int, init int64) []*Var {
	return t.NewVarsAt(callerLoc(1), name, n, init)
}

// NewVarsAt is NewVars at site s. The n objects and handles are each
// allocated as one slab.
func (t *Thread) NewVarsAt(s Site, name string, n int, init int64) []*Var {
	objs := make([]object, n)
	handles := make([]Var, n)
	vars := make([]*Var, n)
	for i := range vars {
		o := &objs[i]
		o.kind, o.name, o.val = objVar, name+"["+strconv.Itoa(i)+"]", init
		t.create(o, s, init)
		handles[i] = Var{obj: o, eng: t.eng}
		vars[i] = &handles[i]
	}
	return vars
}

// NewMutex creates a mutex. Names must be unique per execution.
func (t *Thread) NewMutex(name string) *Mutex { return t.NewMutexAt(callerLoc(1), name) }

// NewMutexAt is NewMutex at site s.
func (t *Thread) NewMutexAt(s Site, name string) *Mutex {
	o := &object{kind: objMutex, name: name}
	t.create(o, s, 0)
	return &Mutex{obj: o, eng: t.eng}
}

// NewCond creates a condition variable bound to m.
func (t *Thread) NewCond(name string, m *Mutex) *Cond { return t.NewCondAt(callerLoc(1), name, m) }

// NewCondAt is NewCond at site s.
func (t *Thread) NewCondAt(s Site, name string, m *Mutex) *Cond {
	o := &object{kind: objCond, name: name, mutex: m}
	t.create(o, s, 0)
	return &Cond{obj: o, eng: t.eng}
}

// --- memory operations --------------------------------------------------------

// Read loads the variable's current value. One scheduling point; records a
// read event whose reads-from edge points at the last write.
func (t *Thread) Read(v *Var) int64 { return t.ReadAt(callerLoc(1), v) }

// ReadAt is Read at site s.
func (t *Thread) ReadAt(s Site, v *Var) int64 {
	t.park(OpRead, v.obj, s)
	return t.retVal
}

// Write stores val into the variable. One scheduling point.
func (t *Thread) Write(v *Var, val int64) { t.WriteAt(callerLoc(1), v, val) }

// WriteAt is Write at site s.
func (t *Thread) WriteAt(s Site, v *Var, val int64) {
	t.pend(OpWrite).Val = val
	t.publish(v.obj, s)
}

// Add performs a NON-atomic increment: a read scheduling point followed by
// an independent write scheduling point, exactly like a compiled `x += d`
// (load; add; store). Other threads may interleave between the halves —
// the classic lost-update race.
func (t *Thread) Add(v *Var, delta int64) int64 { return t.AddAt(callerLoc(1), v, delta) }

// AddAt is Add at site s, for both halves.
func (t *Thread) AddAt(s Site, v *Var, delta int64) int64 {
	t.park(OpRead, v.obj, s)
	nv := t.retVal + delta
	t.pend(OpWrite).Val = nv
	t.publish(v.obj, s)
	return nv
}

// CAS performs an atomic compare-and-swap: one scheduling point recording a
// read event and, iff the read value equals old, a write event with no
// preemption in between. Returns the observed value and whether the swap
// happened.
func (t *Thread) CAS(v *Var, old, new int64) (int64, bool) { return t.CASAt(callerLoc(1), v, old, new) }

// CASAt is CAS at site s.
func (t *Thread) CASAt(s Site, v *Var, old, new int64) (int64, bool) {
	p := t.pend(OpRead)
	p.RMW, p.CASOld, p.Val = RMWCAS, old, new
	t.publish(v.obj, s)
	return t.retVal, t.retOK
}

// AtomicAdd performs an atomic fetch-and-add in one scheduling point,
// returning the previous value.
func (t *Thread) AtomicAdd(v *Var, delta int64) int64 { return t.AtomicAddAt(callerLoc(1), v, delta) }

// AtomicAddAt is AtomicAdd at site s.
func (t *Thread) AtomicAddAt(s Site, v *Var, delta int64) int64 {
	p := t.pend(OpRead)
	p.RMW, p.Val = RMWAdd, delta
	t.publish(v.obj, s)
	return t.retVal
}

// AtomicSwap atomically exchanges the variable's value in one scheduling
// point, returning the previous value.
func (t *Thread) AtomicSwap(v *Var, new int64) int64 { return t.AtomicSwapAt(callerLoc(1), v, new) }

// AtomicSwapAt is AtomicSwap at site s.
func (t *Thread) AtomicSwapAt(s Site, v *Var, new int64) int64 {
	p := t.pend(OpRead)
	p.RMW, p.Val = RMWSwap, new
	t.publish(v.obj, s)
	return t.retVal
}

// --- synchronization ----------------------------------------------------------

// Lock acquires the mutex; the pending lock is enabled only while the mutex
// is free, so contention is a genuine scheduling choice.
func (t *Thread) Lock(m *Mutex) { t.LockAt(callerLoc(1), m) }

// LockAt is Lock at site s.
func (t *Thread) LockAt(s Site, m *Mutex) { t.park(OpLock, m.obj, s) }

// Unlock releases the mutex. Unlocking a mutex the thread does not hold is
// reported as a crash (undefined behaviour in pthreads).
func (t *Thread) Unlock(m *Mutex) { t.UnlockAt(callerLoc(1), m) }

// UnlockAt is Unlock at site s.
func (t *Thread) UnlockAt(s Site, m *Mutex) { t.park(OpUnlock, m.obj, s) }

// TryLock attempts to acquire the mutex without blocking, reporting
// whether it succeeded. The attempt is a scheduling point either way.
func (t *Thread) TryLock(m *Mutex) bool { return t.TryLockAt(callerLoc(1), m) }

// TryLockAt is TryLock at site s.
func (t *Thread) TryLockAt(s Site, m *Mutex) bool {
	t.park(OpTryLock, m.obj, s)
	return t.retOK
}

// Wait atomically releases the condition's mutex and blocks until signaled,
// then reacquires the mutex before returning (two events: OpWait and
// OpLockRe). The caller must hold the mutex.
func (t *Thread) Wait(c *Cond) { t.WaitAt(callerLoc(1), c) }

// WaitAt is Wait at site s, for both events.
func (t *Thread) WaitAt(s Site, c *Cond) {
	t.park(OpWait, c.obj, s)
	t.signaled = false
	t.park(OpLockRe, c.obj.mutex.obj, s)
}

// Signal wakes the longest-waiting thread blocked on the condition, if any;
// a signal with no waiters is lost (pthread semantics — the source of
// several SCTBench bugs).
func (t *Thread) Signal(c *Cond) { t.SignalAt(callerLoc(1), c) }

// SignalAt is Signal at site s.
func (t *Thread) SignalAt(s Site, c *Cond) { t.park(OpSignal, c.obj, s) }

// Broadcast wakes all threads currently blocked on the condition.
func (t *Thread) Broadcast(c *Cond) { t.BroadcastAt(callerLoc(1), c) }

// BroadcastAt is Broadcast at site s.
func (t *Thread) BroadcastAt(s Site, c *Cond) { t.park(OpBroadcast, c.obj, s) }

// --- threads -------------------------------------------------------------------

// Go spawns a child thread executing body. The child is created parked at
// its OpBegin event; its body runs only once the scheduler picks it.
func (t *Thread) Go(name string, body Program) *Thread { return t.GoAt(callerLoc(1), name, body) }

// GoAt is Go at site s.
func (t *Thread) GoAt(s Site, name string, body Program) *Thread {
	child := &Thread{name: name, eng: t.eng, body: body}
	t.newChild = child
	t.park(OpSpawn, nil, s)
	return child
}

// Join blocks until the child thread has finished; enabled only once the
// target has exited.
func (t *Thread) Join(child *Thread) { t.JoinAt(callerLoc(1), child) }

// JoinAt is Join at site s.
func (t *Thread) JoinAt(s Site, child *Thread) {
	t.pend(OpJoin).Target = child.id
	t.publish(nil, s)
}

// JoinAll joins each thread in order.
func (t *Thread) JoinAll(children ...*Thread) { t.JoinAllAt(callerLoc(1), children...) }

// JoinAllAt is JoinAll at site s, for every join.
func (t *Thread) JoinAllAt(s Site, children ...*Thread) {
	for _, c := range children {
		t.JoinAt(s, c)
	}
}

// Yield is a pure scheduling point (sched_yield analogue).
func (t *Thread) Yield() { t.YieldAt(callerLoc(1)) }

// YieldAt is Yield at site s.
func (t *Thread) YieldAt(s Site) { t.park(OpYield, nil, s) }

// --- oracles --------------------------------------------------------------------

// Assert checks a PUT invariant over already-read (thread-local) values.
// A passing assert is not a scheduling point and never resolves its
// location; a failing assert ends the execution with an
// assertion-violation failure — the paper's primary bug oracle.
func (t *Thread) Assert(cond bool, msg string) {
	if !cond {
		t.AssertAt(callerLoc(1), cond, msg)
	}
}

// AssertAt is Assert at site s for the failure event, so interpreted
// programs (internal/progen) get per-statement abstract events instead of
// one shared interpreter call site.
func (t *Thread) AssertAt(s Site, cond bool, msg string) {
	if !cond {
		t.FailAt(s, FailAssert, msg)
	}
}

// Assertf is Assert with formatted message construction on failure only.
func (t *Thread) Assertf(cond bool, format string, args ...any) {
	if !cond {
		t.AssertfAt(callerLoc(1), cond, format, args...)
	}
}

// AssertfAt is Assertf at site s.
func (t *Thread) AssertfAt(s Site, cond bool, format string, args ...any) {
	if !cond {
		t.FailAt(s, FailAssert, fmt.Sprintf(format, args...))
	}
}

// FailMemory reports a simulated memory-safety violation (use-after-free,
// null dereference, double free) — the crash oracle for the ConVul-style
// programs.
func (t *Thread) FailMemory(msg string) { t.FailAt(callerLoc(1), FailMemory, msg) }

// FailMemoryAt is FailMemory at site s.
func (t *Thread) FailMemoryAt(s Site, msg string) { t.FailAt(s, FailMemory, msg) }

// Fail reports an explicit crash with the given kind.
func (t *Thread) Fail(kind FailureKind, msg string) { t.FailAt(callerLoc(1), kind, msg) }

// FailAt is Fail at site s.
func (t *Thread) FailAt(s Site, kind FailureKind, msg string) {
	p := t.pend(OpFail)
	p.FailKind, p.FailMsg = kind, msg
	t.publish(nil, s)
}

// --- reader-writer locks --------------------------------------------------------

// NewRWMutex creates a reader-writer lock. Names must be unique per
// execution.
func (t *Thread) NewRWMutex(name string) *RWMutex { return t.NewRWMutexAt(callerLoc(1), name) }

// NewRWMutexAt is NewRWMutex at site s.
func (t *Thread) NewRWMutexAt(s Site, name string) *RWMutex {
	o := &object{kind: objRWMutex, name: name}
	t.create(o, s, 0)
	return &RWMutex{obj: o, eng: t.eng}
}

// RLock acquires the lock in shared mode; enabled while no writer holds
// it (readers never block each other).
func (t *Thread) RLock(m *RWMutex) { t.RLockAt(callerLoc(1), m) }

// RLockAt is RLock at site s.
func (t *Thread) RLockAt(s Site, m *RWMutex) { t.park(OpRLock, m.obj, s) }

// RUnlock releases a shared hold.
func (t *Thread) RUnlock(m *RWMutex) { t.RUnlockAt(callerLoc(1), m) }

// RUnlockAt is RUnlock at site s.
func (t *Thread) RUnlockAt(s Site, m *RWMutex) { t.park(OpRUnlock, m.obj, s) }

// WLock acquires the lock exclusively; enabled only once every reader and
// writer has released.
func (t *Thread) WLock(m *RWMutex) { t.WLockAt(callerLoc(1), m) }

// WLockAt is WLock at site s.
func (t *Thread) WLockAt(s Site, m *RWMutex) { t.park(OpWLock, m.obj, s) }

// WUnlock releases the exclusive hold.
func (t *Thread) WUnlock(m *RWMutex) { t.WUnlockAt(callerLoc(1), m) }

// WUnlockAt is WUnlock at site s.
func (t *Thread) WUnlockAt(s Site, m *RWMutex) { t.park(OpWUnlock, m.obj, s) }

// --- semaphores ------------------------------------------------------------------

// NewSemaphore creates a counting semaphore with the given initial count.
func (t *Thread) NewSemaphore(name string, initial int64) *Semaphore {
	return t.NewSemaphoreAt(callerLoc(1), name, initial)
}

// NewSemaphoreAt is NewSemaphore at site s.
func (t *Thread) NewSemaphoreAt(s Site, name string, initial int64) *Semaphore {
	o := &object{kind: objSemaphore, name: name, val: initial}
	t.create(o, s, initial)
	return &Semaphore{obj: o, eng: t.eng}
}

// SemWait decrements the semaphore, blocking while the count is zero
// (sem_wait).
func (t *Thread) SemWait(sem *Semaphore) { t.SemWaitAt(callerLoc(1), sem) }

// SemWaitAt is SemWait at site s.
func (t *Thread) SemWaitAt(s Site, sem *Semaphore) { t.park(OpSemWait, sem.obj, s) }

// SemPost increments the semaphore, potentially unblocking a waiter
// (sem_post).
func (t *Thread) SemPost(sem *Semaphore) { t.SemPostAt(callerLoc(1), sem) }

// SemPostAt is SemPost at site s.
func (t *Thread) SemPostAt(s Site, sem *Semaphore) { t.park(OpSemPost, sem.obj, s) }

// --- barriers ---------------------------------------------------------------------

// NewBarrier creates a barrier for the given number of parties.
func (t *Thread) NewBarrier(name string, parties int) *Barrier {
	return t.NewBarrierAt(callerLoc(1), name, parties)
}

// NewBarrierAt is NewBarrier at site s.
func (t *Thread) NewBarrierAt(s Site, name string, parties int) *Barrier {
	o := &object{kind: objBarrier, name: name, val: int64(parties)}
	t.create(o, s, int64(parties))
	return &Barrier{obj: o, eng: t.eng}
}

// BarrierWait joins the barrier, blocking until all parties have arrived
// (pthread_barrier_wait).
func (t *Thread) BarrierWait(b *Barrier) { t.BarrierWaitAt(callerLoc(1), b) }

// BarrierWaitAt is BarrierWait at site s.
func (t *Thread) BarrierWaitAt(s Site, b *Barrier) { t.park(OpBarrier, b.obj, s) }

// --- channels ---------------------------------------------------------------------

// NewChan creates a channel with the given buffer capacity (0 =
// unbuffered rendezvous). Names must be unique per execution.
func (t *Thread) NewChan(name string, capacity int) *Chan {
	return t.NewChanAt(callerLoc(1), name, capacity)
}

// NewChanAt is NewChan at site s.
func (t *Thread) NewChanAt(s Site, name string, capacity int) *Chan {
	if capacity < 0 {
		capacity = 0
	}
	o := &object{kind: objChan, name: name, cap: capacity}
	t.create(o, s, int64(capacity))
	return &Chan{obj: o, eng: t.eng}
}

// Send sends v on the channel: on an unbuffered channel it blocks until a
// receiver is parked on the channel (rendezvous), on a buffered channel
// until there is capacity. Sending on a closed channel crashes with
// FailSendClosed, matching Go.
func (t *Thread) Send(c *Chan, v int64) { t.SendAt(callerLoc(1), c, v) }

// SendAt is Send at site s.
func (t *Thread) SendAt(s Site, c *Chan, v int64) {
	t.pend(OpSend).Val = v
	t.publish(c.obj, s)
}

// Recv receives from the channel, blocking until a value is available or
// the channel is closed. Like Go's v, ok := <-ch it returns the value and
// whether it was a real send (false: closed and drained, v is 0).
func (t *Thread) Recv(c *Chan) (int64, bool) { return t.RecvAt(callerLoc(1), c) }

// RecvAt is Recv at site s.
func (t *Thread) RecvAt(s Site, c *Chan) (int64, bool) {
	t.park(OpRecv, c.obj, s)
	return t.retVal, t.retOK
}

// Close closes the channel. Parked senders become enabled and crash with
// FailSendClosed when scheduled; receivers drain the buffer and then
// observe (0, false). Closing twice crashes with FailCloseClosed.
func (t *Thread) Close(c *Chan) { t.CloseAt(callerLoc(1), c) }

// CloseAt is Close at site s.
func (t *Thread) CloseAt(s Site, c *Chan) { t.park(OpClose, c.obj, s) }

// TrySend attempts a non-blocking send (select { case ch <- v: default: }),
// reporting whether the value was delivered. On an unbuffered channel it
// succeeds only against a parked receiver. Sending on a closed channel
// crashes even when non-blocking, matching Go.
func (t *Thread) TrySend(c *Chan, v int64) bool { return t.TrySendAt(callerLoc(1), c, v) }

// TrySendAt is TrySend at site s.
func (t *Thread) TrySendAt(s Site, c *Chan, v int64) bool {
	t.pend(OpTrySend).Val = v
	t.publish(c.obj, s)
	return t.retOK
}

// TryRecv attempts a non-blocking receive. recvd reports whether a
// receive happened at all (would-block: false); ok distinguishes a sent
// value from the zero value of a closed drained channel. An unbuffered
// channel only yields closure this way: the engine's rendezvous is
// sender-active, so a non-blocking receive never pairs with a blocked
// sender (see DESIGN.md §15).
func (t *Thread) TryRecv(c *Chan) (v int64, ok, recvd bool) { return t.TryRecvAt(callerLoc(1), c) }

// TryRecvAt is TryRecv at site s.
func (t *Thread) TryRecvAt(s Site, c *Chan) (v int64, ok, recvd bool) {
	t.park(OpTryRecv, c.obj, s)
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

// SelectAt is Select at site s, recorded on whichever case event fires.
// The pending names every channel it targets ("a,b"), which costs one key
// lookup per call.
func (t *Thread) SelectAt(s Site, cases ...SelectCase) (idx int, v int64, ok bool) {
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
	p := t.pend(OpSelect)
	p.VarName, p.Cases = string(names), cases
	t.publish(nil, s)
	return t.retCase, t.retVal, t.retOK
}

// --- wait groups ------------------------------------------------------------------

// NewWaitGroup creates a WaitGroup with a zero counter. Names must be
// unique per execution.
func (t *Thread) NewWaitGroup(name string) *WaitGroup { return t.NewWaitGroupAt(callerLoc(1), name) }

// NewWaitGroupAt is NewWaitGroup at site s.
func (t *Thread) NewWaitGroupAt(s Site, name string) *WaitGroup {
	o := &object{kind: objWaitGroup, name: name}
	t.create(o, s, 0)
	return &WaitGroup{obj: o, eng: t.eng}
}

// WgAdd moves the WaitGroup counter by delta. A negative counter crashes,
// matching sync.WaitGroup.
func (t *Thread) WgAdd(w *WaitGroup, delta int64) { t.WgAddAt(callerLoc(1), w, delta) }

// WgAddAt is WgAdd at site s.
func (t *Thread) WgAddAt(s Site, w *WaitGroup, delta int64) {
	t.pend(OpWgAdd).Val = delta
	t.publish(w.obj, s)
}

// WgDone is WgAdd(-1).
func (t *Thread) WgDone(w *WaitGroup) { t.WgDoneAt(callerLoc(1), w) }

// WgDoneAt is WgDone at site s.
func (t *Thread) WgDoneAt(s Site, w *WaitGroup) { t.WgAddAt(s, w, -1) }

// WgWait blocks until the WaitGroup counter is zero. Its event reads-from
// the counter update (or init) that released it.
func (t *Thread) WgWait(w *WaitGroup) { t.WgWaitAt(callerLoc(1), w) }

// WgWaitAt is WgWait at site s.
func (t *Thread) WgWaitAt(s Site, w *WaitGroup) { t.park(OpWgWait, w.obj, s) }
