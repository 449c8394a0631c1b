package exec

import "fmt"

// The reference the incrementally kept enabled set is checked against: the
// set recomputed from scratch at every step by scanning every thread, the
// way the engine computed it before it kept the set up to date.

// scanEnabled returns the pendings of every parked thread whose pending is
// enabled, in thread-ID order.
func scanEnabled(e *Engine) []*Pending {
	var out []*Pending
	for _, th := range e.threads {
		if th.state == tParked && scanEnabledThread(e, th) {
			out = append(out, &th.pending)
		}
	}
	return out
}

// scanEnabledThread is Engine.enabled with every waiter lookup done by a
// scan over all threads.
func scanEnabledThread(e *Engine, th *Thread) bool {
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
		if th.released {
			return true
		}
		n := 0
		for _, w := range e.threads {
			if w.state == tParked && w.pending.Op == OpBarrier && w.pending.Var == o.id && !w.released {
				n++
			}
		}
		return n >= int(o.val)
	case OpSend:
		return scanSendReady(e, e.objs[p.Var-1], th)
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
			o := c.Ch.obj
			if c.Send && scanSendReady(e, o, th) || !c.Send && (len(o.buf) > 0 || o.closed) {
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

func scanSendReady(e *Engine, o *object, sender *Thread) bool {
	if o.closed {
		return true
	}
	if o.cap > 0 {
		return len(o.buf) < o.cap
	}
	for _, th := range e.threads {
		if th == sender || th.state != tParked || th.chanMatched {
			continue
		}
		p := &th.pending
		if p.Op == OpRecv && p.Var == o.id {
			return true
		}
		if p.Op == OpSelect {
			for _, c := range p.Cases {
				if !c.Send && c.Ch.obj == o {
					return true
				}
			}
		}
	}
	return false
}

// crossCheckEnabled panics unless the engine's enabled set, and every
// thread's ready flag, equal what scanEnabled recomputes.
func crossCheckEnabled(e *Engine) {
	want := scanEnabled(e)
	same := len(want) == len(e.cands)
	for i := 0; same && i < len(want); i++ {
		same = want[i] == e.cands[i]
	}
	for _, th := range e.threads {
		same = same && th.ready == (th.state == tParked && scanEnabledThread(e, th))
	}
	if !same {
		panic(fmt.Sprintf("exec: enabled set diverged at step %d: kept %v, recomputed %v",
			e.trace.Len(), pendingThreads(e.cands), pendingThreads(want)))
	}
}

func pendingThreads(ps []*Pending) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprintf("t%d:%v", p.Thread, p.Op)
	}
	return out
}
