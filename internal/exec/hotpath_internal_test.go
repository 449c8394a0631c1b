package exec

// White-box tests for the hot-path machinery: PairID packing, intern-table
// ID assignment, the inlined FNV-1a (which must stay bit-identical to
// hash/fnv.New64a), and the single-build memoization of Trace.Summary.

import (
	"hash/fnv"
	"reflect"
	"testing"
)

// firstEnabled always picks the first enabled event — a scheduler local to
// this package (the real ones live in internal/sched, which imports exec).
type firstEnabled struct{}

func (firstEnabled) Name() string     { return "first" }
func (firstEnabled) Begin(int64)      {}
func (firstEnabled) Pick(v *View) int { return 0 }
func (firstEnabled) Executed(Event)   {}
func (firstEnabled) End(*Trace)       {}

// hotpathProg is a two-writer/two-reader racy program producing several
// distinct abstract events and reads-from pairs.
func hotpathProg(t *Thread) {
	x := t.NewVar("x", 0)
	y := t.NewVar("y", 0)
	w := t.Go("w", func(t *Thread) {
		t.Write(x, 1)
		t.Write(y, 1)
	})
	r := t.Go("r", func(t *Thread) {
		if t.Read(y) == 1 {
			_ = t.Read(x)
		}
		t.Write(x, 2)
	})
	t.JoinAll(w, r)
	_ = t.Read(x)
}

func runHotpath(t *testing.T) *Trace {
	t.Helper()
	res := Run("hotpath", hotpathProg, Config{Scheduler: firstEnabled{}, Seed: 1})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	return res.Trace
}

func TestPairIDPackUnpack(t *testing.T) {
	cases := []struct{ w, r EventID }{
		{0, 0}, {0, 1}, {1, 0}, {7, 13},
		{0xffffffff, 0}, {0, 0xffffffff}, {0xffffffff, 0xfffffffe},
	}
	for _, c := range cases {
		pid := MakePairID(c.w, c.r)
		if pid.WriteID() != c.w || pid.ReadID() != c.r {
			t.Errorf("MakePairID(%d, %d) roundtrip gave (%d, %d)",
				c.w, c.r, pid.WriteID(), pid.ReadID())
		}
	}
	if MakePairID(1, 2) == MakePairID(2, 1) {
		t.Error("pair packing must be direction-sensitive")
	}
}

func TestInternTableAssignsDenseDeterministicIDs(t *testing.T) {
	evs := []AbstractEvent{
		{Op: OpWrite, Var: "x", Loc: "a:1"},
		{Op: OpRead, Var: "x", Loc: "a:2"},
		{Op: OpWrite, Var: "y", Loc: "a:3"},
	}
	a, b := NewInternTable(), NewInternTable()
	for i, ae := range evs {
		ida, idb := a.Intern(ae), b.Intern(ae)
		if ida != EventID(i) || idb != EventID(i) {
			t.Fatalf("event %d interned as (%d, %d), want dense first-seen order", i, ida, idb)
		}
	}
	// Re-interning is stable, and the table lists the events in ID order.
	for i, ae := range evs {
		if id := a.Intern(ae); id != EventID(i) {
			t.Fatalf("re-intern of event %d gave %d", i, id)
		}
	}
	if a.Len() != len(evs) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(evs))
	}
	if got := a.Events(); !reflect.DeepEqual(got, evs) {
		t.Fatalf("Events() = %+v, want %+v", got, evs)
	}
}

func TestInlineFNVMatchesStdlib(t *testing.T) {
	samples := []string{"", "x", "balance", "pop:head", "a longer location string"}
	for _, s := range samples {
		ref := fnv.New64a()
		ref.Write([]byte(s))
		if got := fnvString(uint64(fnvOffset64), s); got != ref.Sum64() {
			t.Errorf("fnvString(%q) = %#x, want %#x", s, got, ref.Sum64())
		}
	}
	ref := fnv.New64a()
	ref.Write([]byte{0x42})
	if got := fnvByte(uint64(fnvOffset64), 0x42); got != ref.Sum64() {
		t.Errorf("fnvByte = %#x, want %#x", got, ref.Sum64())
	}
}

// refHashAbstract is the historical hash/fnv encoding of an abstract event.
func refHashAbstract(h interface{ Write([]byte) (int, error) }, ae AbstractEvent) {
	h.Write([]byte(ae.Var))
	h.Write([]byte{byte(ae.Op)})
	h.Write([]byte(ae.Loc))
}

func TestHashRFPairMatchesStdlibReference(t *testing.T) {
	tr := runHotpath(t)
	for _, p := range tr.RFPairs() {
		ref := fnv.New64a()
		refHashAbstract(ref, p.Write)
		ref.Write([]byte{1})
		refHashAbstract(ref, p.Read)
		if got := HashRFPair(p); got != ref.Sum64() {
			t.Errorf("HashRFPair(%v) = %#x, want stdlib reference %#x", p, got, ref.Sum64())
		}
	}
}

func TestRFSignatureMatchesStdlibReference(t *testing.T) {
	tr := runHotpath(t)
	pairs := tr.RFPairs()
	if len(pairs) == 0 {
		t.Fatal("program produced no rf pairs")
	}
	ref := fnv.New64a()
	for _, p := range pairs { // RFPairs is already deterministically sorted
		refHashAbstract(ref, p.Write)
		refHashAbstract(ref, p.Read)
		ref.Write([]byte{0})
	}
	if got := tr.RFSignature(); got != ref.Sum64() {
		t.Fatalf("RFSignature = %#x, want stdlib reference %#x", got, ref.Sum64())
	}
}

func TestSummaryBuildsOnce(t *testing.T) {
	tr := runHotpath(t)
	// Hit every consumer-facing accessor several times, the way the
	// fuzzing loop's observe phase does (Feedback, EventPool, power
	// schedule, observers).
	for i := 0; i < 3; i++ {
		if len(tr.RFPairs()) == 0 {
			t.Fatal("no rf pairs")
		}
		_ = tr.RFSignature()
		if len(tr.AbstractEvents()) == 0 {
			t.Fatal("no abstract events")
		}
		_ = tr.Summary()
	}
	if n := tr.summaryBuildCount(); n != 1 {
		t.Fatalf("summary built %d times, want exactly 1", n)
	}
}

func TestMemoizedAccessorsAllocateNothing(t *testing.T) {
	tr := runHotpath(t)
	tr.Summary() // warm the memo
	allocs := testing.AllocsPerRun(100, func() {
		_ = tr.RFPairs()
		_ = tr.RFSignature()
		_ = tr.AbstractEvents()
	})
	if allocs != 0 {
		t.Fatalf("memoized accessors allocated %.1f objects/run, want 0", allocs)
	}
}

func TestSummaryConsistentAcrossTables(t *testing.T) {
	// The same execution summarized through a shared table and through a
	// private one must agree on everything except the ID namespace.
	shared := NewInternTable()
	shared.Intern(AbstractEvent{Op: OpWrite, Var: "pre-existing", Loc: "z:0"}) // offset the IDs
	a := Run("hotpath", hotpathProg, Config{Scheduler: firstEnabled{}, Seed: 1}).Trace
	b := Run("hotpath", hotpathProg, Config{Scheduler: firstEnabled{}, Seed: 1, Intern: shared}).Trace
	sa, sb := a.Summary(), b.Summary()
	if sa.Sig != sb.Sig {
		t.Fatalf("signatures diverge across tables: %#x vs %#x", sa.Sig, sb.Sig)
	}
	if len(sa.Pairs) != len(sb.Pairs) {
		t.Fatalf("pair counts diverge: %d vs %d", len(sa.Pairs), len(sb.Pairs))
	}
	for i := range sa.Pairs {
		if sa.Pairs[i] != sb.Pairs[i] {
			t.Fatalf("pair %d diverges: %+v vs %+v", i, sa.Pairs[i], sb.Pairs[i])
		}
		// The parallel ID slices must be the pairs interned through Table.
		p := sb.Pairs[i]
		if want := MakePairID(sb.Table.Intern(p.Write), sb.Table.Intern(p.Read)); sb.PairIDs[i] != want {
			t.Fatalf("PairIDs[%d] = %#x, want %#x for %+v", i, sb.PairIDs[i], want, p)
		}
	}
}
