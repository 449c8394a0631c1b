// Package progen is a seeded, deterministic generator of small concurrent
// programs over the internal/exec API: 2–4 worker threads performing
// shared-variable reads/writes, non-atomic and atomic read-modify-writes,
// mutex regions, yields, and assertions, drawn from a size-bounded
// grammar.
//
// The point of the generator is conformance testing (internal/
// conformance): programs are kept small enough that internal/systematic
// can enumerate their complete scheduling tree, turning the exhaustive
// enumeration into a ground-truth oracle for every randomized strategy.
// The per-thread scheduling-point budget therefore shrinks as the thread
// count grows — the decision tree's width is the product of the threads'
// op counts, and enumerability is the whole game.
//
// Determinism: the emitted program stream is a pure function of the
// generator seed and options. Generated programs are loop-free, so every
// schedule either terminates or deadlocks (balanced lock regions; the
// only blocking is lock acquisition and the final joins), and every
// failure is one of: assertion violation (racy register or final-state
// asserts) or deadlock (nested lock regions acquired in opposite
// orders).
package progen

import (
	"fmt"
	"math/rand"

	"rff/internal/bench"
	"rff/internal/exec"
)

// The grammar's size bounds. The per-thread op budget (opBudget)
// shrinks with the drawn thread count.
const (
	// minThreads and maxThreads bound the worker thread count.
	minThreads, maxThreads = 2, 4
	// maxVars bounds the shared-variable count (at least one is drawn).
	maxVars = 3
	// maxMutexes bounds the mutex count (0 is a valid draw).
	maxMutexes = 2
	// maxSteps bounds the validation execution; generated programs are
	// two orders of magnitude shorter.
	maxSteps = 4096
)

// opBudget is the per-thread scheduling-point budget by thread count:
// 5 for 2 threads, 2 for 3, 1 for 4. The decision-tree width grows
// roughly multinomially in these (the spawn sequence interleaves too),
// so more threads get fewer operations each. Empirically, these keep
// most trees under ~30k leaves.
func opBudget(threads int) int {
	switch threads {
	case 2:
		return 5
	case 3:
		return 2
	default:
		return 1
	}
}

// StmtKind enumerates the grammar's statement forms.
type StmtKind uint8

const (
	// StLoad reads a shared variable into a thread-local register.
	StLoad StmtKind = iota + 1
	// StStore writes a constant to a shared variable.
	StStore
	// StStoreReg writes register+delta to a shared variable.
	StStoreReg
	// StAddNA is a non-atomic read-modify-write (x += d as separate
	// read and write scheduling points — the classic lost-update race).
	StAddNA
	// StAtomicAdd is an atomic fetch-add.
	StAtomicAdd
	// StCAS is an atomic compare-and-swap.
	StCAS
	// StYield is a pure scheduling point.
	StYield
	// StAssert checks register Cmp Const; a passing assert is invisible
	// to the scheduler, a failing one raises FailAssert.
	StAssert
	// StLocked is lock(m); Body; unlock(m). Nested regions over
	// distinct mutexes are the grammar's deadlock source.
	StLocked

	// The remaining kinds are feature-gated (Features); the core
	// grammar never draws them.

	// StSend is a blocking channel send of Const on channel Chan.
	StSend
	// StRecv is a blocking channel receive from Chan into register Reg.
	StRecv
	// StClose closes channel Chan (a second close crashes).
	StClose
	// StTrySend is a non-blocking send attempt of Const on Chan.
	StTrySend
	// StTryRecv is a non-blocking receive attempt from Chan into Reg.
	StTryRecv
	// StSelect is a two-case select: case 0 receives from Chan; case 1
	// sends Const on Chan2 when SelSend, else receives from Chan2. The
	// received value (if any) lands in Reg.
	StSelect
	// StWgDone decrements the program's WaitGroup; appended to the
	// designated doner workers' bodies, never drawn inside stmts.
	StWgDone
	// StCondWait waits on condition Cond; generated only inside a locked
	// region of the condition's bound mutex.
	StCondWait
	// StSignal signals condition Cond.
	StSignal
	// StBroadcast broadcasts condition Cond.
	StBroadcast
	// StRLocked is rlock(rw); Body; runlock(rw).
	StRLocked
	// StWLocked is wlock(rw); Body; wunlock(rw).
	StWLocked
)

// Cmp is an assertion comparison operator.
type Cmp uint8

// The comparison operators assertions draw from.
const (
	CmpEq Cmp = iota + 1
	CmpNe
	CmpLe
	CmpGe
)

// String renders the operator.
func (c Cmp) String() string {
	switch c {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLe:
		return "<="
	case CmpGe:
		return ">="
	}
	return "?"
}

// eval applies the comparison.
func (c Cmp) eval(v, k int64) bool {
	switch c {
	case CmpEq:
		return v == k
	case CmpNe:
		return v != k
	case CmpLe:
		return v <= k
	case CmpGe:
		return v >= k
	}
	return false
}

// Stmt is one statement of a generated worker body. Which fields are
// meaningful depends on Kind.
type Stmt struct {
	Kind  StmtKind
	Var   int   // shared variable index (loads/stores/RMWs)
	Mutex int   // mutex index (StLocked)
	Reg   int   // register index (StLoad, StStoreReg, StAssert, receives)
	Delta int64 // StStoreReg, StAddNA, StAtomicAdd
	Old   int64 // StCAS expected value
	New   int64 // StCAS replacement value
	Const int64 // StStore value, StAssert comparand, sent value
	Cmp   Cmp   // StAssert operator
	Body  []Stmt

	// Feature-grammar operands.
	Chan    int  // channel index (sends/receives/close; select case 0)
	Chan2   int  // select case 1's channel
	SelSend bool // select case 1 is a send
	Cond    int  // condition index (StCondWait/StSignal/StBroadcast)
	RW      int  // reader/writer lock index (StRLocked/StWLocked)
	// Loc is the statement's synthetic source location ("w2.3"):
	// distinct per statement, so each one is its own abstract event.
	Loc string
}

// FinalAssert is a sequential assertion main runs on a variable's final
// value after joining every worker.
type FinalAssert struct {
	Var   int
	Cmp   Cmp
	Const int64
}

// Program is one generated program: the AST plus the interpreter over it
// (Body). Vars are named x0..x{NVars-1}, mutexes m0..m{NMutexes-1},
// worker threads w1..wN.
type Program struct {
	// Name identifies the program ("gen/s42/0007"): generator seed plus
	// candidate index, so equal names imply equal programs.
	Name string
	// Seed and Index locate the program in its generator's stream.
	Seed  int64
	Index int

	// Features records the grammar the program was drawn from (encoded
	// in Name for non-core grammars).
	Features Features

	NVars    int
	NMutexes int
	// Inits holds each variable's initial value.
	Inits []int64
	// Threads holds each worker's statement list.
	Threads [][]Stmt
	// Finals are main's post-join assertions.
	Finals []FinalAssert

	// Feature-grammar structure (all zero for the core grammar).
	NChans    int
	ChanCaps  []int // per-channel buffer capacity (0 = rendezvous)
	NRWs      int
	NConds    int
	CondMutex []int // per-condition bound mutex index
	// UseWg wires a WaitGroup through the program: main adds WgAdds
	// before spawning, the WgDoners workers each append a Done, and main
	// waits before joining. A deliberate add/done mismatch makes the
	// wait deadlock (adds too high) or the last Done panic (too low).
	UseWg    bool
	WgAdds   int
	WgDoners []bool
}

// Bench wraps the program for the campaign.Tool interface.
func (p *Program) Bench() bench.Program {
	return bench.Program{
		Name:    p.Name,
		Suite:   "gen",
		Bug:     bench.BugNone,
		Threads: len(p.Threads),
		Desc:    fmt.Sprintf("generated: %d threads, %d vars, %d mutexes", len(p.Threads), p.NVars, p.NMutexes),
		Body:    p.Body(),
	}
}

// Generator emits a deterministic stream of validated programs.
type Generator struct {
	seed     int64
	features Features
	rng      *rand.Rand
	idx      int
}

// NewGenerator builds a generator over the grammar that features
// selects: optional productions (channels, WaitGroups, condition
// variables, reader/writer locks) on top of the core grammar, which is
// the zero value and whose draw stream — and therefore every
// "gen/s<seed>/<idx>" program — is unchanged. The stream it emits is a
// pure function of (seed, features).
func NewGenerator(seed int64, features Features) *Generator {
	return &Generator{seed: seed, features: features, rng: rand.New(rand.NewSource(seed))}
}

// Next generates, validates, and returns the stream's next program. The
// validation run executes the program once under a fixed deterministic
// scheduler and checks the trace against the engine's invariants
// (exec.Validate); a violation is a generator/engine bug and panics.
func (g *Generator) Next() *Program {
	p := g.gen()
	res := exec.Run(p.Name, p.Body(), exec.Config{
		Scheduler: firstEnabled{},
		MaxSteps:  maxSteps,
	})
	if res.Truncated {
		panic(fmt.Sprintf("progen: %s exceeded %d steps — generator op budget broken", p.Name, maxSteps))
	}
	if err := res.Trace.Validate(); err != nil {
		panic(fmt.Sprintf("progen: %s produced an invalid trace: %v", p.Name, err))
	}
	return p
}

// firstEnabled is the validation scheduler: always picks the first
// enabled pending op, making the run a pure function of the program.
type firstEnabled struct{}

func (firstEnabled) Name() string        { return "first-enabled" }
func (firstEnabled) Begin(int64)         {}
func (firstEnabled) Pick(*exec.View) int { return 0 }
func (firstEnabled) Executed(exec.Event) {}
func (firstEnabled) End(*exec.Trace)     {}

// gen draws one candidate program from the grammar. Every feature draw
// is gated behind a non-zero feature set, keeping the core grammar's rng
// stream — and therefore its emitted programs — byte-identical to the
// pre-feature generator.
func (g *Generator) gen() *Program {
	r := g.rng
	p := &Program{
		Seed:     g.seed,
		Index:    g.idx,
		Features: g.features,
		Name:     fmt.Sprintf("gen/s%d/%04d", g.seed, g.idx),
	}
	if g.features != 0 {
		p.Name = fmt.Sprintf("gen/%s/s%d/%04d", GrammarName(g.features), g.seed, g.idx)
	}
	g.idx++

	threads := minThreads + r.Intn(maxThreads-minThreads+1)
	p.NVars = 1 + r.Intn(maxVars)
	p.NMutexes = r.Intn(maxMutexes + 1)
	p.Inits = make([]int64, p.NVars)
	for i := range p.Inits {
		p.Inits[i] = int64(r.Intn(3))
	}

	if f := g.features; f != 0 {
		if f&FeatChan != 0 {
			p.NChans = 1 + r.Intn(2)
			p.ChanCaps = make([]int, p.NChans)
			for i := range p.ChanCaps {
				p.ChanCaps[i] = r.Intn(3)
			}
		}
		if f&FeatCond != 0 {
			if p.NMutexes == 0 {
				p.NMutexes = 1 // conditions need a mutex to bind to
			}
			p.NConds = r.Intn(2)
			p.CondMutex = make([]int, p.NConds)
			for i := range p.CondMutex {
				p.CondMutex[i] = r.Intn(p.NMutexes)
			}
		}
		if f&FeatRWMutex != 0 {
			p.NRWs = r.Intn(2)
		}
		if f&FeatWaitGroup != 0 && r.Intn(3) > 0 {
			p.UseWg = true
			doners := 1 + r.Intn(threads)
			p.WgDoners = make([]bool, threads)
			for i := 0; i < doners; i++ {
				p.WgDoners[i] = true
			}
			p.WgAdds = doners
			switch r.Intn(8) {
			case 0:
				p.WgAdds++ // one Done short: main's wait deadlocks
			case 1:
				p.WgAdds-- // one Done extra: the last Done panics
			}
		}
	}

	budget := opBudget(threads)
	p.Threads = make([][]Stmt, threads)
	for t := 0; t < threads; t++ {
		counter := 0
		b := budget
		if p.UseWg && p.WgDoners[t] {
			b-- // the appended Done costs one scheduling point
		}
		p.Threads[t] = g.stmts(p, b, 0, -1, -1, t+1, &counter)
		if p.UseWg && p.WgDoners[t] {
			p.Threads[t] = append(p.Threads[t], Stmt{Kind: StWgDone, Loc: fmt.Sprintf("w%d.done", t+1)})
		}
	}

	// Post-join assertions on final variable values, most of the time.
	if r.Intn(10) < 7 {
		n := 1 + r.Intn(2)
		for i := 0; i < n; i++ {
			p.Finals = append(p.Finals, FinalAssert{
				Var:   r.Intn(p.NVars),
				Cmp:   g.cmp(),
				Const: int64(r.Intn(6) - 1),
			})
		}
	}
	return p
}

// cmp draws an assertion operator.
func (g *Generator) cmp() Cmp { return Cmp(1 + g.rng.Intn(4)) }

// stmts draws a statement list costing at most budget scheduling points.
// depth is the lock-nesting depth, held the mutex index held by the
// enclosing region and heldRW the rwlock index held (-1 = none); tid and
// counter feed the synthetic source locations.
func (g *Generator) stmts(p *Program, budget, depth, held, heldRW, tid int, counter *int) []Stmt {
	r := g.rng
	var out []Stmt
	asserts := 0
	for budget > 0 {
		s := Stmt{Loc: fmt.Sprintf("w%d.%d", tid, *counter)}
		*counter++
		// Weighted kind choice; zero-cost asserts are capped so the
		// loop always terminates. Core draws from [0,20); feature
		// grammars widen the range, with the added kinds in [20,30).
		kmax := 20
		if g.features != 0 {
			kmax = 30
		}
		k := r.Intn(kmax)
		switch {
		case k < 4: // load
			s.Kind, s.Var, s.Reg = StLoad, r.Intn(p.NVars), r.Intn(2)
			budget--
		case k < 7: // store const
			s.Kind, s.Var, s.Const = StStore, r.Intn(p.NVars), int64(r.Intn(5))
			budget--
		case k < 9: // store reg+delta
			s.Kind, s.Var, s.Reg, s.Delta = StStoreReg, r.Intn(p.NVars), r.Intn(2), int64(r.Intn(3))
			budget--
		case k < 12 && budget >= 2: // non-atomic increment (2 points)
			s.Kind, s.Var, s.Delta = StAddNA, r.Intn(p.NVars), int64(1+r.Intn(3))
			budget -= 2
		case k < 14: // atomic fetch-add
			s.Kind, s.Var, s.Delta = StAtomicAdd, r.Intn(p.NVars), int64(1+r.Intn(3))
			budget--
		case k < 15: // CAS
			s.Kind, s.Var = StCAS, r.Intn(p.NVars)
			s.Old, s.New = int64(r.Intn(4)), int64(r.Intn(5))
			budget--
		case k < 16: // yield
			s.Kind = StYield
			budget--
		case k < 17 && asserts < 2: // register assert (0 points when passing)
			s.Kind, s.Reg = StAssert, r.Intn(2)
			s.Cmp, s.Const = g.cmp(), int64(r.Intn(6)-1)
			asserts++
		case k < 20 && p.NMutexes > 0 && depth < 2 && budget >= 3: // lock region
			m := r.Intn(p.NMutexes)
			if m == held { // never re-acquire the held mutex
				m = (m + 1) % p.NMutexes
			}
			if m == held {
				continue // single mutex already held: no region possible
			}
			s.Kind, s.Mutex = StLocked, m
			inner := 1 + r.Intn(budget-2)
			s.Body = g.stmts(p, inner, depth+1, m, heldRW, tid, counter)
			budget -= 2 + inner
		case k < 22 && p.NChans > 0: // non-blocking send attempt
			s.Kind, s.Chan, s.Const = StTrySend, r.Intn(p.NChans), int64(1+r.Intn(4))
			budget--
		case k < 24 && p.NChans > 0: // non-blocking receive attempt
			s.Kind, s.Chan, s.Reg = StTryRecv, r.Intn(p.NChans), r.Intn(2)
			budget--
		case k < 25 && p.NChans > 0: // blocking send (may deadlock)
			s.Kind, s.Chan, s.Const = StSend, r.Intn(p.NChans), int64(1+r.Intn(4))
			budget--
		case k < 26 && p.NChans > 0: // blocking receive (may deadlock)
			s.Kind, s.Chan, s.Reg = StRecv, r.Intn(p.NChans), r.Intn(2)
			budget--
		case k < 27 && p.NChans > 0: // close (a racing second close crashes)
			s.Kind, s.Chan = StClose, r.Intn(p.NChans)
			budget--
		case k < 28 && p.NChans > 0: // two-case select
			s.Kind, s.Chan, s.Reg = StSelect, r.Intn(p.NChans), r.Intn(2)
			s.Chan2 = r.Intn(p.NChans)
			s.SelSend = r.Intn(2) == 0
			s.Const = int64(1 + r.Intn(4))
			budget--
		case k < 29 && p.NConds > 0: // condition ops
			s.Cond = r.Intn(p.NConds)
			if held >= 0 && held == p.CondMutex[s.Cond] && budget >= 2 {
				s.Kind = StCondWait // only while holding the bound mutex
				budget -= 2         // OpWait + the relock
			} else if r.Intn(2) == 0 {
				s.Kind = StSignal
				budget--
			} else {
				s.Kind = StBroadcast
				budget--
			}
		case p.NRWs > 0 && depth < 2 && budget >= 3: // rw region (k in [29,30))
			rw := r.Intn(p.NRWs)
			if rw == heldRW {
				continue // never nest on the held rwlock
			}
			if r.Intn(2) == 0 {
				s.Kind = StWLocked
			} else {
				s.Kind = StRLocked
			}
			s.RW = rw
			inner := 1 + r.Intn(budget-2)
			s.Body = g.stmts(p, inner, depth+1, held, rw, tid, counter)
			budget -= 2 + inner
		default:
			continue
		}
		out = append(out, s)
	}
	return out
}
