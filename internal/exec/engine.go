package exec

import (
	"context"
	"fmt"
	"strings"

	"rff/internal/telemetry"
)

// Config parameterizes one execution.
type Config struct {
	// Scheduler decides every scheduling point. Required.
	Scheduler Scheduler
	// Seed is passed to the scheduler's Begin; with a deterministic
	// scheduler the whole execution is a pure function of (program, seed).
	Seed int64
	// Ctx, if non-nil, is checked at every scheduling step: once it is
	// cancelled the engine stops within one step, tears down the PUT's
	// threads, and returns a Result with Cancelled set. A nil (or
	// never-cancelled) context changes nothing — the check is one nil
	// test plus a non-blocking channel poll per step.
	Ctx context.Context
	// MaxSteps bounds the number of recorded events (livelock guard).
	// Zero means DefaultMaxSteps.
	MaxSteps int
	// Telemetry, if non-nil, receives per-execution engine metrics
	// (executions, steps-per-schedule histogram, truncations). Nil costs
	// a single branch per execution.
	Telemetry telemetry.Sink
	// Intern, if non-nil, is the campaign-shared abstract-event intern
	// table: the trace's Summary resolves events and reads-from pairs to
	// dense IDs through it, so feedback state keyed on those IDs stays
	// comparable across every execution of the campaign. Nil gives the
	// trace a private table on first Summary call.
	Intern *InternTable
	// Recycle, if non-nil, reuses trace backing arrays across executions
	// and pre-sizes the engine's thread/object tables from the previous
	// run (see Recycler). The caller must Reclaim each finished trace to
	// close the loop.
	Recycle *Recycler
}

// checkEnabled, when non-nil, runs before every scheduling decision with
// the engine's enabled set up to date. Only tests set it, to cross-check
// the incrementally kept set against one recomputed from scratch.
var checkEnabled func(*Engine)

// DefaultMaxSteps is the per-execution event budget used when
// Config.MaxSteps is zero.
const DefaultMaxSteps = 20000

// Result is the outcome of one controlled execution.
type Result struct {
	Program string
	Seed    int64
	Trace   *Trace
	// Failure is non-nil if the execution crashed (assertion, deadlock,
	// memory-safety, panic).
	Failure *Failure
	// Truncated reports that the step budget was exhausted before the
	// program finished (treated as a non-buggy execution).
	Truncated bool
	// Cancelled reports that Config.Ctx was cancelled mid-execution and
	// the run was abandoned. A cancelled execution is neither buggy nor
	// complete; callers should discard its (partial) trace after
	// reclaiming it.
	Cancelled bool
}

// Buggy reports whether the execution exposed a bug.
func (r *Result) Buggy() bool { return r.Failure != nil }

// Steps returns the number of events executed.
func (r *Result) Steps() int { return r.Trace.Len() }

// Engine serializes one execution of a Program under a Scheduler. A fresh
// Engine is built per execution by Run; it is not reusable.
type Engine struct {
	cfg  Config
	name string

	threads  []*Thread // index = ThreadID-1
	objs     []*object // index = VarID-1
	objByKey map[VarKey]*object

	trace *Trace

	// done is Config.Ctx's cancellation channel (nil when no context was
	// supplied), polled once per scheduling step.
	done <-chan struct{}

	// cands is the enabled set: the pendings of every parked thread
	// whose pending is enabled, in thread-ID order, pointing at each
	// thread's own pending. It is kept up to date step by step (see
	// settle) instead of rebuilt; view hands it to the scheduler.
	cands []*Pending
	view  View

	// Step bookkeeping for settle: the objects the current step changed,
	// whose waiters it re-evaluates; how many threads entered or left the
	// set this step; and whether cands must be rebuilt from the threads'
	// ready flags because too many did to patch it in place.
	touched  []*object
	touchBuf [4]*object
	flips    int
	stale    bool

	// selects lists the threads parked at a select: they wait on several
	// channels at once, so they sit on no single object's waiters.
	selects waitList

	failure   *Failure
	truncated bool
	cancelled bool
	abort     bool
}

// Run executes program p to completion (or bug / deadlock / step budget)
// under cfg and returns the result. It is safe to call Run concurrently
// from multiple goroutines; each call owns an independent engine.
func Run(name string, p Program, cfg Config) *Result {
	if cfg.Scheduler == nil {
		panic("exec.Run: Config.Scheduler is required")
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	e := &Engine{
		cfg:   cfg,
		name:  name,
		trace: &Trace{intern: cfg.Intern},
	}
	e.touched = e.touchBuf[:0]
	e.view.eng = e
	if cfg.Ctx != nil {
		e.done = cfg.Ctx.Done()
	}
	if r := cfg.Recycle; r != nil {
		// Adopt the previous execution's backing arrays and sizes: traces
		// of one program barely vary, so these capacities fit immediately.
		e.trace.Events, e.trace.Decisions = r.take()
		e.cands = r.takeEnabled()
		e.threads = make([]*Thread, 0, r.prevThreads)
		e.objs = make([]*object, 0, r.prevObjs)
		e.objByKey = make(map[VarKey]*object, r.prevObjs)
	} else {
		e.objByKey = make(map[VarKey]*object)
	}
	cfg.Scheduler.Begin(cfg.Seed)

	main := &Thread{name: "main", eng: e, body: p}
	e.addThread(main)
	main.car = acquireCarrier(main)
	e.resume(main)
	if e.failure == nil {
		e.settle(main)
	}

	e.loop()
	e.teardown()

	cfg.Scheduler.End(e.trace)
	if r := cfg.Recycle; r != nil {
		r.record(len(e.threads), len(e.objs), e.trace.Len(), e.cands)
	}
	if t := cfg.Telemetry; t != nil {
		t.Add(telemetry.MEngineExecutions, 1)
		t.Observe(telemetry.MStepsPerSchedule, int64(e.trace.Len()))
		if e.truncated {
			t.Add(telemetry.MEngineTruncated, 1)
		}
	}
	return &Result{
		Program:   name,
		Seed:      cfg.Seed,
		Trace:     e.trace,
		Failure:   e.failure,
		Truncated: e.truncated,
		Cancelled: e.cancelled,
	}
}

// addThread registers a thread and assigns its ID.
func (e *Engine) addThread(th *Thread) {
	e.threads = append(e.threads, th)
	th.id = ThreadID(len(e.threads))
}

func (e *Engine) thread(id ThreadID) *Thread { return e.threads[id-1] }

// loop is the main scheduling loop: let the scheduler pick from the
// enabled set, execute one step, bring the set up to date. Each step runs
// the chosen thread to its next park or exit before returning.
func (e *Engine) loop() {
	for {
		if e.failure != nil {
			return // failed assertion, thread panic, or engine-detected misuse
		}
		if e.done != nil {
			select {
			case <-e.done:
				e.cancelled = true
				return
			default:
			}
		}
		if checkEnabled != nil {
			checkEnabled(e)
		}
		if len(e.cands) == 0 {
			if blocked := e.parkedThreads(); len(blocked) > 0 {
				e.failure = e.deadlockFailure(blocked)
			}
			return // normal termination: every thread exited
		}
		if e.trace.Len() >= e.cfg.MaxSteps {
			e.truncated = true
			return
		}
		// The View and its Enabled slice are only valid for the duration
		// of Pick (see Scheduler); the scheduler gets the set's header, so
		// reslicing v.Enabled cannot corrupt it.
		e.view.Step, e.view.Enabled = e.trace.Len(), e.cands
		idx := e.cfg.Scheduler.Pick(&e.view)
		if idx < 0 || idx >= len(e.cands) {
			panic(fmt.Sprintf("exec: scheduler %q returned out-of-range index %d (enabled %d)",
				e.cfg.Scheduler.Name(), idx, len(e.cands)))
		}
		th := e.thread(e.cands[idx].Thread)
		th.unwait()
		e.step(th)
		if e.failure == nil {
			e.settle(th)
		}
	}
}

// parkedThreads returns live parked threads in thread-ID order.
func (e *Engine) parkedThreads() []*Thread {
	var out []*Thread
	for _, th := range e.threads {
		if th.state == tParked {
			out = append(out, th)
		}
	}
	return out
}

// waitList is an intrusive doubly linked list of parked threads, linked
// through Thread.wnext and Thread.wprev: a thread is on at most one list
// at a time, so joining or leaving one allocates nothing. Order carries
// no meaning.
//
// The lists are how the engine keeps its enabled set without rescanning
// every thread. A parked thread's enabledness changes only when the
// thread itself parks on a new pending, when an object its pending names
// changes state, or when its join target exits. So each object lists the
// threads parked on a pending whose enabledness depends on it (its
// waiters, object.parked); selects, which name several channels, are
// listed in Engine.selects, and joins in the target's joiners. After
// each step the engine re-evaluates only the stepped thread and the
// waiters of the objects the step touched (see settle). The candidate
// order, and with it every scheduler decision, is the one a scan of
// every thread at every step gives.
type waitList struct{ head *Thread }

// push adds th, which must be on no list.
func (l *waitList) push(th *Thread) {
	th.wnext, th.wprev, th.waiting = l.head, nil, l
	if l.head != nil {
		l.head.wprev = th
	}
	l.head = th
}

// unwait takes th off the list it is on, if any.
func (th *Thread) unwait() {
	l := th.waiting
	if l == nil {
		return
	}
	if th.wprev != nil {
		th.wprev.wnext = th.wnext
	} else {
		l.head = th.wnext
	}
	if th.wnext != nil {
		th.wnext.wprev = th.wprev
	}
	th.wnext, th.wprev, th.waiting = nil, nil, nil
}

// touch queues o's waiters for re-evaluation at the end of the step.
func (e *Engine) touch(o *object) {
	if n := len(e.touched); n == 0 || e.touched[n-1] != o {
		e.touched = append(e.touched, o)
	}
}

// enqueue puts th, just parked, on the waiters of whatever its pending's
// enabledness depends on. A new receiver can enable a sender and a new
// arrival can open a barrier, so those also touch their objects.
func (e *Engine) enqueue(th *Thread) {
	p := &th.pending
	switch p.Op {
	case OpLock, OpLockRe, OpRLock, OpWLock, OpSemWait, OpSend, OpWgWait:
		e.objs[p.Var-1].parked.push(th)
	case OpRecv, OpBarrier:
		o := e.objs[p.Var-1]
		o.parked.push(th)
		e.touch(o)
	case OpJoin:
		e.thread(p.Target).joiners.push(th)
	case OpSelect:
		e.selects.push(th)
		for _, c := range p.Cases {
			e.touch(c.Ch.obj)
		}
	}
}

// settle brings the enabled set up to date after th ran: th parked on a
// new pending (or exited), and the step touched some objects. Only th,
// its joiners if it exited, and the waiters of the touched objects can
// have changed enabledness; a touched channel can also change any
// select's.
func (e *Engine) settle(th *Thread) {
	if th.state == tParked {
		e.enqueue(th)
	} else {
		for j := th.joiners.head; j != nil; j = j.wnext {
			e.refresh(j)
		}
	}
	e.refresh(th)
	chans := false
	for _, o := range e.touched {
		for w := o.parked.head; w != nil; w = w.wnext {
			e.refresh(w)
		}
		chans = chans || o.kind == objChan
	}
	if chans {
		for w := e.selects.head; w != nil; w = w.wnext {
			e.refresh(w)
		}
	}
	e.touched = e.touched[:0]
	if e.stale {
		e.rebuild()
	}
	e.flips = 0
}

// maxFlips is how many threads may enter or leave the enabled set in one
// step before settle stops patching the set in place (a binary search and
// a shift each) and rebuilds it once from the threads' ready flags — the
// cheaper choice when, say, a lock release enables a hundred waiters.
const maxFlips = 8

// refresh re-evaluates th's enabledness and adds it to or removes it from
// the enabled set if that changed.
func (e *Engine) refresh(th *Thread) {
	on := th.state == tParked && e.enabled(th)
	if on == th.ready {
		return
	}
	th.ready = on
	if e.stale {
		return
	}
	if e.flips++; e.flips > maxFlips {
		e.stale = true
		return
	}
	en := e.cands
	lo, hi := 0, len(en)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); en[m].Thread < th.id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if on {
		en = append(en, nil)
		copy(en[lo+1:], en[lo:])
		en[lo] = &th.pending
	} else {
		copy(en[lo:], en[lo+1:])
		en[len(en)-1] = nil
		en = en[:len(en)-1]
	}
	e.cands = en
}

// rebuild refills the enabled set from the threads' ready flags.
func (e *Engine) rebuild() {
	en := e.cands[:0]
	for _, th := range e.threads {
		if th.ready {
			en = append(en, &th.pending)
		}
	}
	clear(en[len(en):cap(en)])
	e.cands = en
	e.stale = false
}

// enabled implements the enabledness rules: locks need a free mutex,
// condition reacquires additionally need a signal, joins need an exited
// target, unbuffered sends need a parked receiver, receives need a
// delivered value or a closed channel, WaitGroup waits need a zero
// counter; everything else is always enabled.
func (e *Engine) enabled(th *Thread) bool {
	p := &th.pending
	switch p.Op {
	case OpLock:
		return e.objs[p.Var-1].holder == nil
	case OpLockRe:
		return th.signaled && e.objs[p.Var-1].holder == nil
	case OpJoin:
		return e.thread(p.Target).exited
	case OpRLock:
		return e.objs[p.Var-1].writer == nil
	case OpWLock:
		o := e.objs[p.Var-1]
		return o.writer == nil && o.readers == 0
	case OpSemWait:
		return e.objs[p.Var-1].val > 0
	case OpBarrier:
		o := e.objs[p.Var-1]
		return th.released || e.barrierArrivals(o) >= int(o.val)
	case OpSend:
		return e.sendReady(e.objs[p.Var-1], th)
	case OpRecv:
		if th.chanMatched {
			return true
		}
		o := e.objs[p.Var-1]
		return len(o.buf) > 0 || o.closed
	case OpSelect:
		if th.chanMatched {
			return true
		}
		for _, c := range p.Cases {
			if e.caseReady(c, th) {
				return true
			}
		}
		return false
	case OpWgWait:
		return e.objs[p.Var-1].val == 0
	default:
		return true
	}
}

// sendReady reports whether th could send on o now. A send on a closed
// channel counts as ready: firing it crashes with send-on-closed.
func (e *Engine) sendReady(o *object, th *Thread) bool {
	if o.closed {
		return true
	}
	if o.cap > 0 {
		return len(o.buf) < o.cap
	}
	return e.chanReceiver(o, th) != nil
}

// chanReceiver returns the lowest-ID parked thread able to complete a
// rendezvous on the unbuffered channel o: an unmatched thread pending a
// receive on o, or a select containing a receive case on o. The sender
// itself is excluded (a thread cannot rendezvous with itself); nil when
// no receiver is available. Receivers are among o's waiters and the
// parked selects, so only those are searched.
func (e *Engine) chanReceiver(o *object, sender *Thread) *Thread {
	var best *Thread
	for th := o.parked.head; th != nil; th = th.wnext {
		if th.pending.Op == OpRecv && th != sender && !th.chanMatched && (best == nil || th.id < best.id) {
			best = th
		}
	}
	for th := e.selects.head; th != nil; th = th.wnext {
		if th == sender || th.chanMatched || best != nil && th.id > best.id {
			continue
		}
		for _, c := range th.pending.Cases {
			if !c.Send && c.Ch.obj == o {
				best = th
				break
			}
		}
	}
	return best
}

// recvCaseIndex returns the index of the first receive case on o in the
// select pending p. The match that set chanMatched guarantees one exists.
func recvCaseIndex(p *Pending, o *object) int {
	for i, c := range p.Cases {
		if !c.Send && c.Ch.obj == o {
			return i
		}
	}
	panic("exec: matched select has no receive case on the channel")
}

// caseReady reports whether one select arm of thread th could fire right
// now.
func (e *Engine) caseReady(c SelectCase, th *Thread) bool {
	o := c.Ch.obj
	if c.Send {
		return e.sendReady(o, th)
	}
	return len(o.buf) > 0 || o.closed
}

// barrierArrivals counts the threads parked at the barrier for the
// *current* generation — its waiters, less those already released but not
// yet scheduled, which belong to the previous generation.
func (e *Engine) barrierArrivals(o *object) int {
	n := 0
	for th := o.parked.head; th != nil; th = th.wnext {
		if !th.released {
			n++
		}
	}
	return n
}

// record appends an event to the trace, assigns its ID, and reports it to
// the scheduler. Returns the event ID. ev is taken by pointer so that
// building it at the call site copies nothing.
func (e *Engine) record(ev *Event) int {
	ev.ID = e.trace.Len() + 1
	e.trace.Events = append(e.trace.Events, *ev)
	e.cfg.Scheduler.Executed(*ev)
	return ev.ID
}

// resume grants the thread its step; it runs PUT code until its next park
// or exit. A thread that parks at OpFail ends the execution: only the
// thread that just ran can have reached a failing assertion.
func (e *Engine) resume(th *Thread) {
	e.switchTo(th)
	if th.state == tParked && th.pending.Op == OpFail {
		p := &th.pending
		e.record(&Event{Thread: th.id, Op: OpFail, Loc: p.Loc, Key: p.Key})
		e.failure = &Failure{Kind: p.FailKind, Msg: p.FailMsg, Thread: th.id, Loc: p.Loc}
	}
}

// switchTo runs th on its carrier until the thread parks or exits; an
// exited thread hands its carrier back to the idle list.
func (e *Engine) switchTo(th *Thread) {
	th.state = tRunning
	th.car.next()
	if !th.exited {
		th.state = tParked
		return
	}
	th.state = tExited
	releaseCarrier(th.car)
	th.car = nil
}

// misuse reports incorrect API usage by the PUT (e.g. unlocking an unheld
// mutex) as a crash, matching undefined-behaviour outcomes in pthreads.
func (e *Engine) misuse(th *Thread, msg string) {
	e.failure = &Failure{Kind: FailPanic, Msg: msg, Thread: th.id, Loc: th.pending.Loc}
}

// step executes the chosen thread's pending event: applies its semantics to
// the shared state, records trace events, and resumes the thread. It
// touches every object whose change of state can change another parked
// thread's enabledness. p points at th's pending, which the resume
// overwrites, so each case reads it before resuming.
func (e *Engine) step(th *Thread) {
	p := &th.pending
	e.trace.Decisions = append(e.trace.Decisions, th.id)
	switch p.Op {
	case OpVarInit:
		o := th.newObj
		th.newObj = nil
		if _, dup := e.objByKey[o.key]; dup {
			e.misuse(th, fmt.Sprintf("duplicate shared object name %q", o.name))
			return
		}
		e.objs = append(e.objs, o)
		o.id = VarID(len(e.objs))
		e.objByKey[o.key] = o
		ev := Event{Thread: th.id, Op: OpVarInit, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, Val: o.val}
		o.lastWrite = e.record(&ev)
		e.resume(th)

	case OpRead:
		o := e.objs[p.Var-1]
		e.record(&Event{Thread: th.id, Op: OpRead, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, Val: o.val, RF: o.lastWrite, Atomic: p.RMW != RMWNone})
		th.retVal = o.val
		th.retOK = false
		switch p.RMW {
		case RMWNone:
		case RMWCAS:
			if o.val == p.CASOld {
				o.val = p.Val
				o.lastWrite = e.record(&Event{Thread: th.id, Op: OpWrite, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.WriteKey, Val: o.val, Atomic: true})
				th.retOK = true
			}
		case RMWAdd:
			o.val += p.Val
			o.lastWrite = e.record(&Event{Thread: th.id, Op: OpWrite, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.WriteKey, Val: o.val, Atomic: true})
		case RMWSwap:
			o.val = p.Val
			o.lastWrite = e.record(&Event{Thread: th.id, Op: OpWrite, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.WriteKey, Val: o.val, Atomic: true})
		}
		e.resume(th)

	case OpWrite:
		o := e.objs[p.Var-1]
		o.val = p.Val
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpWrite, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, Val: o.val})
		e.resume(th)

	case OpLock:
		// A lock acquisition reads the lock word released by the last
		// unlock/wait (or the initializer) and overwrites it — so it both
		// carries a reads-from edge and is a reads-from source.
		o := e.objs[p.Var-1]
		o.holder = th
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpLock, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, RF: o.lastWrite})
		e.resume(th)

	case OpUnlock:
		o := e.objs[p.Var-1]
		if o.holder != th {
			e.misuse(th, fmt.Sprintf("unlock of mutex %q not held by thread %d", o.name, th.id))
			return
		}
		o.holder = nil
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpUnlock, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpWait:
		o := e.objs[p.Var-1]
		m := o.mutex.obj
		if m.holder != th {
			e.misuse(th, fmt.Sprintf("wait on condition %q without holding mutex %q", o.name, m.name))
			return
		}
		m.holder = nil
		e.touch(m)
		o.waiters = append(o.waiters, th)
		// The wait releases the mutex: its event becomes the mutex
		// word's last write, so the next acquisition reads-from it.
		m.lastWrite = e.record(&Event{Thread: th.id, Op: OpWait, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th) // thread immediately reparks at OpLockRe

	case OpLockRe:
		o := e.objs[p.Var-1]
		o.holder = th
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpLockRe, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, RF: o.lastWrite})
		e.resume(th)

	case OpSignal:
		o := e.objs[p.Var-1]
		if len(o.waiters) > 0 {
			w := o.waiters[0]
			o.waiters = o.waiters[1:]
			w.signaled = true
			e.touch(o.mutex.obj) // w is parked reacquiring the mutex
		}
		e.record(&Event{Thread: th.id, Op: OpSignal, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpBroadcast:
		o := e.objs[p.Var-1]
		for _, w := range o.waiters {
			w.signaled = true
		}
		if len(o.waiters) > 0 {
			e.touch(o.mutex.obj)
		}
		o.waiters = nil
		e.record(&Event{Thread: th.id, Op: OpBroadcast, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpSpawn:
		child := th.newChild
		th.newChild = nil
		e.addThread(child)
		child.state = tParked
		child.pending = Pending{Thread: child.id, Op: OpBegin, Loc: p.Loc, Key: p.Key.withOp(OpBegin)}
		e.refresh(child)
		e.record(&Event{Thread: th.id, Op: OpSpawn, Loc: p.Loc, Key: p.Key, Target: child.id})
		e.resume(th)

	case OpBegin:
		e.record(&Event{Thread: th.id, Op: OpBegin, Loc: p.Loc, Key: p.Key})
		th.car = acquireCarrier(th)
		e.resume(th)

	case OpJoin:
		e.record(&Event{Thread: th.id, Op: OpJoin, Loc: p.Loc, Key: p.Key, Target: p.Target})
		e.resume(th)

	case OpYield:
		e.record(&Event{Thread: th.id, Op: OpYield, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpTryLock:
		o := e.objs[p.Var-1]
		ev := Event{Thread: th.id, Op: OpTryLock, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key}
		if o.holder == nil {
			o.holder = th
			e.touch(o)
			ev.Val = 1
			ev.RF = o.lastWrite
			o.lastWrite = e.record(&ev)
			th.retOK = true
		} else {
			e.record(&ev) // failed attempt: no edge, no word update
			th.retOK = false
		}
		e.resume(th)

	case OpRLock:
		o := e.objs[p.Var-1]
		o.readers++
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpRLock, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, RF: o.lastWrite})
		e.resume(th)

	case OpRUnlock:
		o := e.objs[p.Var-1]
		if o.readers == 0 {
			e.misuse(th, fmt.Sprintf("read-unlock of rwlock %q with no readers", o.name))
			return
		}
		o.readers--
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpRUnlock, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpWLock:
		o := e.objs[p.Var-1]
		o.writer = th
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpWLock, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, RF: o.lastWrite})
		e.resume(th)

	case OpWUnlock:
		o := e.objs[p.Var-1]
		if o.writer != th {
			e.misuse(th, fmt.Sprintf("write-unlock of rwlock %q not held by thread %d", o.name, th.id))
			return
		}
		o.writer = nil
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpWUnlock, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpSemWait:
		o := e.objs[p.Var-1]
		o.val--
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpSemWait, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, Val: o.val, RF: o.lastWrite})
		e.resume(th)

	case OpSemPost:
		o := e.objs[p.Var-1]
		o.val++
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpSemPost, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, Val: o.val})
		e.resume(th)

	case OpBarrier:
		o := e.objs[p.Var-1]
		if !th.released {
			// Final arrival: open the gate for everyone parked here.
			for other := o.parked.head; other != nil; other = other.wnext {
				other.released = true
			}
			e.touch(o)
		}
		th.released = false
		e.record(&Event{Thread: th.id, Op: OpBarrier, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpSend:
		o := e.objs[p.Var-1]
		e.touch(o)
		if e.execSend(th, o, p.Val, p.Loc, p.Key.loc()) {
			e.resume(th)
		}

	case OpRecv:
		o := e.objs[p.Var-1]
		e.touch(o)
		e.execRecv(th, o, p.Loc, p.Key.loc())
		e.resume(th)

	case OpClose:
		o := e.objs[p.Var-1]
		if o.closed {
			e.failure = &Failure{Kind: FailCloseClosed,
				Msg: fmt.Sprintf("close of closed channel %q", o.name), Thread: th.id, Loc: p.Loc}
			return
		}
		o.closed = true
		e.touch(o)
		o.closeEv = e.record(&Event{Thread: th.id, Op: OpClose, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key})
		e.resume(th)

	case OpTrySend:
		o := e.objs[p.Var-1]
		if o.closed {
			e.failure = &Failure{Kind: FailSendClosed,
				Msg: fmt.Sprintf("send on closed channel %q", o.name), Thread: th.id, Loc: p.Loc}
			return
		}
		e.touch(o)
		ev := Event{Thread: th.id, Op: OpTrySend, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, Val: p.Val}
		th.retOK = false
		switch {
		case o.cap > 0 && len(o.buf) < o.cap:
			ev.Ok = true
			id := e.record(&ev)
			o.buf = append(o.buf, chanElem{val: p.Val, src: id})
			th.retOK = true
		case o.cap == 0:
			if rcv := e.chanReceiver(o, th); rcv != nil {
				ev.Ok = true
				e.deliver(rcv, o, p.Val, e.record(&ev))
				th.retOK = true
			} else {
				e.record(&ev) // would block: recorded no-op, no edge
			}
		default:
			e.record(&ev) // buffer full: recorded no-op, no edge
		}
		e.resume(th)

	case OpTryRecv:
		o := e.objs[p.Var-1]
		e.touch(o)
		ev := Event{Thread: th.id, Op: OpTryRecv, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key}
		th.retVal, th.retOK, th.retRecvd = 0, false, false
		switch {
		case len(o.buf) > 0:
			el := o.buf[0]
			o.buf = o.buf[1:]
			ev.Val, ev.RF, ev.Ok = el.val, el.src, true
			th.retVal, th.retOK, th.retRecvd = el.val, true, true
		case o.closed:
			ev.RF = o.closeEv // closed and drained: reads-from the close
			th.retRecvd = true
		}
		e.record(&ev)
		e.resume(th)

	case OpSelect:
		// th stops being a receiver on each of its channels.
		for _, c := range p.Cases {
			e.touch(c.Ch.obj)
		}
		if th.chanMatched {
			// A sender already committed this select to its matched
			// receive case; complete the handoff.
			i := th.chanCase
			e.execRecv(th, p.Cases[i].Ch.obj, p.Loc, p.Key.loc())
			th.retCase = i
			e.resume(th)
			return
		}
		fired := -1
		for i, c := range p.Cases {
			if e.caseReady(c, th) {
				fired = i
				break
			}
		}
		if fired < 0 {
			panic("exec: select scheduled with no ready case")
		}
		c := p.Cases[fired]
		th.retCase = fired
		if c.Send {
			if !e.execSend(th, c.Ch.obj, c.Val, p.Loc, p.Key.loc()) {
				return // send-on-closed crash
			}
			th.retVal, th.retOK = 0, true
		} else {
			e.execRecv(th, c.Ch.obj, p.Loc, p.Key.loc())
		}
		e.resume(th)

	case OpWgAdd:
		o := e.objs[p.Var-1]
		o.val += p.Val
		if o.val < 0 {
			e.misuse(th, fmt.Sprintf("negative WaitGroup counter on %q", o.name))
			return
		}
		e.touch(o)
		o.lastWrite = e.record(&Event{Thread: th.id, Op: OpWgAdd, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, Val: o.val})
		e.resume(th)

	case OpWgWait:
		o := e.objs[p.Var-1]
		e.record(&Event{Thread: th.id, Op: OpWgWait, Var: o.id, VarStr: o.name, Loc: p.Loc, Key: p.Key, RF: o.lastWrite})
		e.resume(th)

	default:
		panic(fmt.Sprintf("exec: unschedulable pending op %v", p.Op))
	}
}

// execSend applies send semantics for th on channel o at loc (whose key is
// lk): crash on a
// closed channel, enqueue on a buffered one, deliver into the matched
// receiver's transfer slot on a rendezvous. Returns false when the send
// crashed (the execution ends; th is not resumed).
func (e *Engine) execSend(th *Thread, o *object, val int64, loc string, lk locKey) bool {
	if o.closed {
		e.failure = &Failure{Kind: FailSendClosed,
			Msg: fmt.Sprintf("send on closed channel %q", o.name), Thread: th.id, Loc: loc}
		return false
	}
	ev := Event{Thread: th.id, Op: OpSend, Var: o.id, VarStr: o.name, Loc: loc, Key: makeEventKey(OpSend, o.key, lk), Val: val}
	if o.cap > 0 {
		id := e.record(&ev)
		o.buf = append(o.buf, chanElem{val: val, src: id})
		return true
	}
	rcv := e.chanReceiver(o, th)
	if rcv == nil {
		panic("exec: unbuffered send scheduled with no receiver parked")
	}
	e.deliver(rcv, o, val, e.record(&ev))
	return true
}

// deliver deposits a rendezvous value into the receiver's transfer slot.
// The receiver's pending (plain receive or select) becomes enabled and
// records its receive event — reading-from sendID — when scheduled.
func (e *Engine) deliver(rcv *Thread, o *object, val int64, sendID int) {
	rcv.chanMatched = true
	rcv.chanVal = val
	rcv.chanRF = sendID
	if rcv.pending.Op == OpSelect {
		rcv.chanCase = recvCaseIndex(&rcv.pending, o)
		// A matched select stops being a receiver on its other channels.
		for _, c := range rcv.pending.Cases {
			e.touch(c.Ch.obj)
		}
	} else {
		rcv.chanCase = 0
	}
}

// execRecv applies receive semantics for th on channel o at loc (whose key
// is lk): drain
// the transfer slot (rendezvous match), pop the buffer head, or observe
// the close of a drained channel. Sets the thread's return values.
func (e *Engine) execRecv(th *Thread, o *object, loc string, lk locKey) {
	ev := Event{Thread: th.id, Op: OpRecv, Var: o.id, VarStr: o.name, Loc: loc, Key: makeEventKey(OpRecv, o.key, lk)}
	switch {
	case th.chanMatched:
		th.chanMatched = false
		ev.Val, ev.RF, ev.Ok = th.chanVal, th.chanRF, true
	case len(o.buf) > 0:
		el := o.buf[0]
		o.buf = o.buf[1:]
		ev.Val, ev.RF, ev.Ok = el.val, el.src, true
	default: // closed and drained: the zero value, reading-from the close
		ev.RF = o.closeEv
	}
	e.record(&ev)
	th.retVal, th.retOK = ev.Val, ev.Ok
}

// deadlockFailure builds the failure report for a detected deadlock.
func (e *Engine) deadlockFailure(blocked []*Thread) *Failure {
	var b strings.Builder
	for i, th := range blocked {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "t%d(%s) blocked at %s", th.id, th.name, th.pending.Op)
		if th.pending.VarName != "" {
			fmt.Fprintf(&b, "(%s)", th.pending.VarName)
		}
		if th.pending.Loc != "" {
			fmt.Fprintf(&b, "@%s", th.pending.Loc)
		}
	}
	return &Failure{Kind: FailDeadlock, Msg: b.String()}
}

// teardown unwinds every remaining thread: parked threads are resumed with
// the abort flag set, making their park panic through the PUT body so the
// carrier returns to the idle list; threads never started (parked at
// OpBegin) are simply marked exited. After teardown no thread of this
// engine holds a carrier, unless its body swallowed the abort panic and
// parked again.
func (e *Engine) teardown() {
	e.abort = true
	for _, th := range e.threads {
		if th.state != tParked {
			continue
		}
		if th.pending.Op == OpBegin {
			th.state = tExited
			th.exited = true
			continue
		}
		e.switchTo(th)
	}
}
