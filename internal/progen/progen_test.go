package progen

import (
	"testing"

	"rff/internal/exec"
	"rff/internal/systematic"
)

// TestDeterministicStream: two generators with the same seed emit
// byte-identical program streams; a different seed diverges quickly.
func TestDeterministicStream(t *testing.T) {
	a := NewGenerator(42, 0)
	b := NewGenerator(42, 0)
	same := true
	for i := 0; i < 30; i++ {
		pa, pb := a.Next(), b.Next()
		if pa.Source() != pb.Source() {
			t.Fatalf("program %d diverged between identical seeds:\n%s\nvs\n%s", i, pa.Source(), pb.Source())
		}
		if pa.Name != pb.Name {
			t.Fatalf("program %d names diverged: %q vs %q", i, pa.Name, pb.Name)
		}
	}
	c := NewGenerator(43, 0)
	a2 := NewGenerator(42, 0)
	for i := 0; i < 10; i++ {
		if a2.Next().Source() != c.Next().Source() {
			same = false
		}
	}
	if same {
		t.Fatal("10 programs identical across different seeds — seed is ignored")
	}
}

// TestGeneratedProgramsValidate: every generated program yields traces
// satisfying the engine invariants under both a fixed and a randomized
// scheduler, and never comes near the step bound.
func TestGeneratedProgramsValidate(t *testing.T) {
	g := NewGenerator(7, 0)
	for i := 0; i < 40; i++ {
		p := g.Next() // Next panics on an invalid trace already
		body := p.Body()
		for seed := int64(0); seed < 3; seed++ {
			res := exec.Run(p.Name, body, exec.Config{Scheduler: &randomWalk{}, Seed: seed, MaxSteps: 4096})
			if res.Truncated {
				t.Fatalf("%s truncated under random walk", p.Name)
			}
			if err := res.Trace.Validate(); err != nil {
				t.Fatalf("%s invalid trace under random walk: %v", p.Name, err)
			}
			if res.Failure != nil {
				switch res.Failure.Kind {
				case exec.FailAssert, exec.FailDeadlock:
				default:
					t.Fatalf("%s unexpected failure kind %v: %v", p.Name, res.Failure.Kind, res.Failure)
				}
			}
		}
	}
}

// TestGrammarBounds: thread counts, variable and mutex counts, and
// per-thread statement lists stay inside the documented grammar bounds
// in every named grammar.
func TestGrammarBounds(t *testing.T) {
	for _, grammar := range Grammars() {
		feats, err := ParseGrammar(grammar)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(11, feats)
		for i := 0; i < 60; i++ {
			p := g.Next()
			if n := len(p.Threads); n < 2 || n > 4 {
				t.Fatalf("%s has %d threads, want 2..4", p.Name, n)
			}
			if p.NVars < 1 || p.NVars > 3 {
				t.Fatalf("%s has %d vars, want 1..3", p.Name, p.NVars)
			}
			if p.NMutexes > 2 {
				t.Fatalf("%s has %d mutexes, want <=2", p.Name, p.NMutexes)
			}
			for ti, body := range p.Threads {
				if len(body) == 0 {
					t.Fatalf("%s thread %d is empty", p.Name, ti)
				}
			}
		}
	}
}

// TestEnumerable: the decision trees of generated programs are small
// enough for systematic.Explore to finish — the property the
// conformance harness's ground-truth oracle depends on. A modest
// completion rate is tolerated (conformance skips incomplete programs
// deterministically), but most programs must enumerate.
func TestEnumerable(t *testing.T) {
	if testing.Short() {
		t.Skip("enumeration is slow under -short")
	}
	g := NewGenerator(3, 0)
	const n = 25
	complete := 0
	for i := 0; i < n; i++ {
		p := g.Next()
		rep := systematic.Explore(p.Name, p.Body(), systematic.ExploreOptions{
			MaxExecutions: 60000,
			MaxSteps:      4096,
		})
		if rep.Complete {
			complete++
		}
	}
	if complete < n*2/3 {
		t.Fatalf("only %d/%d generated programs enumerable within 60k executions", complete, n)
	}
}

// randomWalk picks uniformly among enabled ops (thread-local rng; test
// only).
type randomWalk struct{ state uint64 }

func (r *randomWalk) Name() string     { return "random-walk" }
func (r *randomWalk) Begin(seed int64) { r.state = uint64(seed)*2862933555777941757 + 3037000493 }
func (r *randomWalk) Pick(v *exec.View) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(len(v.Enabled)))
}
func (r *randomWalk) Executed(exec.Event) {}
func (r *randomWalk) End(*exec.Trace)     {}
