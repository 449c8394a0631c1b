package progen

import (
	"fmt"
	"strings"

	"rff/internal/exec"
)

// env bundles the shared objects a generated program's workers operate
// on.
type env struct {
	vars  []*exec.Var
	mus   []*exec.Mutex
	chans []*exec.Chan
	rws   []*exec.RWMutex
	conds []*exec.Cond
	wg    *exec.WaitGroup
}

// Body builds the exec.Program interpreting the AST. Every statement runs
// through the thread's …At forms at its own synthetic location, resolved
// once when the statement was generated, so each statement is a distinct
// abstract event op(x)@loc — exactly what the reads-from machinery keys on.
func (p *Program) Body() exec.Program {
	readSites := finalSites(p.NVars)
	return func(t *exec.Thread) {
		e := &env{
			vars:  make([]*exec.Var, p.NVars),
			mus:   make([]*exec.Mutex, p.NMutexes),
			chans: make([]*exec.Chan, p.NChans),
			rws:   make([]*exec.RWMutex, p.NRWs),
			conds: make([]*exec.Cond, p.NConds),
		}
		for i := range e.vars {
			e.vars[i] = t.NewVar(fmt.Sprintf("x%d", i), p.Inits[i])
		}
		for i := range e.mus {
			e.mus[i] = t.NewMutex(fmt.Sprintf("m%d", i))
		}
		for i := range e.chans {
			e.chans[i] = t.NewChan(fmt.Sprintf("ch%d", i), p.ChanCaps[i])
		}
		for i := range e.rws {
			e.rws[i] = t.NewRWMutex(fmt.Sprintf("rw%d", i))
		}
		for i := range e.conds {
			e.conds[i] = t.NewCond(fmt.Sprintf("c%d", i), e.mus[p.CondMutex[i]])
		}
		if p.UseWg {
			e.wg = t.NewWaitGroup("wg")
			t.WgAddAt(wgAddSite, e.wg, int64(p.WgAdds))
		}
		children := make([]*exec.Thread, len(p.Threads))
		for i, body := range p.Threads {
			body := body
			children[i] = t.Go(fmt.Sprintf("w%d", i+1), func(w *exec.Thread) {
				var regs [2]int64
				runStmts(w, body, e, &regs)
			})
		}
		if p.UseWg {
			t.WgWaitAt(wgWaitSite, e.wg)
		}
		t.JoinAll(children...)
		// Sequential epilogue: read every final value, then assert.
		finals := make([]int64, p.NVars)
		for i, v := range e.vars {
			finals[i] = t.ReadAt(readSites[i], v)
		}
		for _, a := range p.Finals {
			t.AssertAt(a.site, a.Cmp.eval(finals[a.Var], a.Const), a.msg)
		}
	}
}

// Sites of main's wait-group events, shared by every program.
var (
	wgAddSite  = exec.SiteAt("main.wgadd")
	wgWaitSite = exec.SiteAt("main.wgwait")
)

// finalSites returns the sites of main's reads of x0..x{n-1} after the
// join.
func finalSites(n int) []exec.Site {
	sites := make([]exec.Site, n)
	for i := range sites {
		sites[i] = exec.SiteAt(fmt.Sprintf("main.final.%d", i))
	}
	return sites
}

// runStmts interprets one statement list on thread w.
func runStmts(w *exec.Thread, stmts []Stmt, e *env, regs *[2]int64) {
	for i := range stmts {
		s := &stmts[i]
		switch s.Kind {
		case StLoad:
			regs[s.Reg] = w.ReadAt(s.site, e.vars[s.Var])
		case StStore:
			w.WriteAt(s.site, e.vars[s.Var], s.Const)
		case StStoreReg:
			w.WriteAt(s.site, e.vars[s.Var], regs[s.Reg]+s.Delta)
		case StAddNA:
			w.AddAt(s.site, e.vars[s.Var], s.Delta)
		case StAtomicAdd:
			w.AtomicAddAt(s.site, e.vars[s.Var], s.Delta)
		case StCAS:
			w.CASAt(s.site, e.vars[s.Var], s.Old, s.New)
		case StYield:
			w.YieldAt(s.site)
		case StAssert:
			w.AssertAt(s.site, s.Cmp.eval(regs[s.Reg], s.Const), s.msg)
		case StLocked:
			w.LockAt(s.site, e.mus[s.Mutex])
			runStmts(w, s.Body, e, regs)
			w.UnlockAt(s.site, e.mus[s.Mutex])
		case StSend:
			w.SendAt(s.site, e.chans[s.Chan], s.Const)
		case StRecv:
			v, _ := w.RecvAt(s.site, e.chans[s.Chan])
			regs[s.Reg] = v
		case StClose:
			w.CloseAt(s.site, e.chans[s.Chan])
		case StTrySend:
			w.TrySendAt(s.site, e.chans[s.Chan], s.Const)
		case StTryRecv:
			v, _, recvd := w.TryRecvAt(s.site, e.chans[s.Chan])
			if recvd {
				regs[s.Reg] = v
			}
		case StSelect:
			cases := []exec.SelectCase{exec.RecvCase(e.chans[s.Chan])}
			if s.SelSend {
				cases = append(cases, exec.SendCase(e.chans[s.Chan2], s.Const))
			} else {
				cases = append(cases, exec.RecvCase(e.chans[s.Chan2]))
			}
			_, v, ok := w.SelectAt(s.site, cases...)
			if ok {
				regs[s.Reg] = v
			}
		case StWgDone:
			w.WgDoneAt(s.site, e.wg)
		case StCondWait:
			w.WaitAt(s.site, e.conds[s.Cond])
		case StSignal:
			w.SignalAt(s.site, e.conds[s.Cond])
		case StBroadcast:
			w.BroadcastAt(s.site, e.conds[s.Cond])
		case StRLocked:
			w.RLockAt(s.site, e.rws[s.RW])
			runStmts(w, s.Body, e, regs)
			w.RUnlockAt(s.site, e.rws[s.RW])
		case StWLocked:
			w.WLockAt(s.site, e.rws[s.RW])
			runStmts(w, s.Body, e, regs)
			w.WUnlockAt(s.site, e.rws[s.RW])
		default:
			panic(fmt.Sprintf("progen: unknown statement kind %d", s.Kind))
		}
	}
}

// Source renders the program as deterministic pseudo-code — the artifact
// tests and humans diff when two "identical" generator streams disagree.
func (p *Program) Source() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	for i, init := range p.Inits {
		fmt.Fprintf(&b, "var x%d = %d\n", i, init)
	}
	for i := 0; i < p.NMutexes; i++ {
		fmt.Fprintf(&b, "mutex m%d\n", i)
	}
	for i := 0; i < p.NChans; i++ {
		fmt.Fprintf(&b, "chan ch%d cap %d\n", i, p.ChanCaps[i])
	}
	for i := 0; i < p.NRWs; i++ {
		fmt.Fprintf(&b, "rwmutex rw%d\n", i)
	}
	for i := 0; i < p.NConds; i++ {
		fmt.Fprintf(&b, "cond c%d on m%d\n", i, p.CondMutex[i])
	}
	if p.UseWg {
		fmt.Fprintf(&b, "waitgroup wg add %d\n", p.WgAdds)
	}
	for i, body := range p.Threads {
		fmt.Fprintf(&b, "thread w%d {\n", i+1)
		writeStmts(&b, body, 1)
		b.WriteString("}\n")
	}
	for _, a := range p.Finals {
		fmt.Fprintf(&b, "final assert x%d %s %d\n", a.Var, a.Cmp, a.Const)
	}
	return b.String()
}

// writeStmts renders a statement list at the given indent depth.
func writeStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range stmts {
		switch s.Kind {
		case StLoad:
			fmt.Fprintf(b, "%sr%d = x%d", ind, s.Reg, s.Var)
		case StStore:
			fmt.Fprintf(b, "%sx%d = %d", ind, s.Var, s.Const)
		case StStoreReg:
			fmt.Fprintf(b, "%sx%d = r%d + %d", ind, s.Var, s.Reg, s.Delta)
		case StAddNA:
			fmt.Fprintf(b, "%sx%d += %d", ind, s.Var, s.Delta)
		case StAtomicAdd:
			fmt.Fprintf(b, "%satomic x%d += %d", ind, s.Var, s.Delta)
		case StCAS:
			fmt.Fprintf(b, "%scas(x%d, %d, %d)", ind, s.Var, s.Old, s.New)
		case StYield:
			fmt.Fprintf(b, "%syield", ind)
		case StAssert:
			fmt.Fprintf(b, "%sassert r%d %s %d", ind, s.Reg, s.Cmp, s.Const)
		case StLocked:
			fmt.Fprintf(b, "%slock m%d {\t// %s\n", ind, s.Mutex, s.Loc)
			writeStmts(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}", ind)
		case StSend:
			fmt.Fprintf(b, "%sch%d <- %d", ind, s.Chan, s.Const)
		case StRecv:
			fmt.Fprintf(b, "%sr%d = <-ch%d", ind, s.Reg, s.Chan)
		case StClose:
			fmt.Fprintf(b, "%sclose(ch%d)", ind, s.Chan)
		case StTrySend:
			fmt.Fprintf(b, "%strysend(ch%d, %d)", ind, s.Chan, s.Const)
		case StTryRecv:
			fmt.Fprintf(b, "%sr%d = tryrecv(ch%d)", ind, s.Reg, s.Chan)
		case StSelect:
			arm := fmt.Sprintf("recv ch%d", s.Chan2)
			if s.SelSend {
				arm = fmt.Sprintf("send ch%d %d", s.Chan2, s.Const)
			}
			fmt.Fprintf(b, "%sselect { recv ch%d -> r%d | %s }", ind, s.Chan, s.Reg, arm)
		case StWgDone:
			fmt.Fprintf(b, "%swg.done()", ind)
		case StCondWait:
			fmt.Fprintf(b, "%swait(c%d)", ind, s.Cond)
		case StSignal:
			fmt.Fprintf(b, "%ssignal(c%d)", ind, s.Cond)
		case StBroadcast:
			fmt.Fprintf(b, "%sbroadcast(c%d)", ind, s.Cond)
		case StRLocked:
			fmt.Fprintf(b, "%srlock rw%d {\t// %s\n", ind, s.RW, s.Loc)
			writeStmts(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}", ind)
		case StWLocked:
			fmt.Fprintf(b, "%swlock rw%d {\t// %s\n", ind, s.RW, s.Loc)
			writeStmts(b, s.Body, depth+1)
			fmt.Fprintf(b, "%s}", ind)
		}
		fmt.Fprintf(b, "\t// %s\n", s.Loc)
	}
}
