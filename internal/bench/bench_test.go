package bench

import (
	"strings"
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 40 {
		t.Fatalf("expected at least 40 registered programs, got %d", len(all))
	}
	seen := make(map[string]bool)
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate program %q", p.Name)
		}
		seen[p.Name] = true
		if p.Suite == "" || p.Desc == "" || p.Body == nil {
			t.Errorf("program %q missing metadata", p.Name)
		}
		if p.Bug == 0 {
			t.Errorf("program %q has no bug type", p.Name)
		}
	}
	if _, ok := Get("CS/reorder_100"); !ok {
		t.Error("reorder_100 not registered")
	}
	if _, ok := Get("no/such/program"); ok {
		t.Error("Get returned a phantom program")
	}
	suites := Suites()
	want := map[string]bool{"CS": true, "Chess": true, "ConVul": true, "Inspect": true,
		"CB": true, "Splash2": true, "RADBench": true, "SafeStack": true, "Extras": true,
		"Chan": true}
	for _, s := range suites {
		if !want[s] {
			t.Errorf("unexpected suite %q", s)
		}
		delete(want, s)
	}
	for s := range want {
		t.Errorf("missing suite %q", s)
	}
}

func TestResolve(t *testing.T) {
	for name, want := range map[string]string{
		"CS/reorder_10": "CS/reorder_10", // exact
		"reorder_10":    "CS/reorder_10", // unique "/"-suffix
		"SafeStack":     "SafeStack",
	} {
		p, err := Resolve(name)
		if err != nil || p.Name != want {
			t.Errorf("Resolve(%q) = %q, %v; want %q", name, p.Name, err, want)
		}
	}
	if _, err := Resolve("CS/nosuch"); err == nil || !strings.Contains(err.Error(), "unknown program") {
		t.Errorf("Resolve(CS/nosuch) error = %v, want unknown program", err)
	}

	// Two suites sharing a program name make the bare name ambiguous,
	// while either full name still resolves exactly.
	saved := ordered
	t.Cleanup(func() {
		delete(registry, "A/dup")
		delete(registry, "B/dup")
		ordered = saved
	})
	ordered = append([]string(nil), ordered...)
	for _, n := range []string{"A/dup", "B/dup"} {
		register(Program{Name: n, Body: MustGet("CS/account").Body})
	}
	if _, err := Resolve("dup"); err == nil || !strings.Contains(err.Error(), "ambiguous: A/dup, B/dup") {
		t.Errorf("Resolve(dup) error = %v, want both candidates", err)
	}
	if p, err := Resolve("B/dup"); err != nil || p.Name != "B/dup" {
		t.Errorf("Resolve(B/dup) = %q, %v", p.Name, err)
	}
}

// TestProgramsTerminate runs every program under several schedulers and
// seeds: all must finish within the step budget (bugs are fine; hangs and
// truncations are not).
func TestProgramsTerminate(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				for _, s := range []exec.Scheduler{sched.NewRandom(), sched.NewPOS()} {
					res := exec.Run(p.Name, p.Body, exec.Config{Scheduler: s, Seed: seed})
					if res.Truncated {
						t.Fatalf("seed %d under %s: execution truncated (livelock?)", seed, s.Name())
					}
				}
			}
			res := exec.Run(p.Name, p.Body, exec.Config{Scheduler: sched.NewRoundRobin()})
			if res.Truncated {
				t.Fatal("round-robin execution truncated")
			}
		})
	}
}

// hardPrograms are the subjects the paper's tools also fail on within
// realistic budgets; bug reachability is not asserted for them.
var hardPrograms = map[string]bool{
	"SafeStack":     true,
	"RADBench/bug5": true,
}

// TestBugsReachableByRFF is the suite's integration test: the RFF fuzzer
// must expose every non-hard program's bug within a modest budget.
func TestBugsReachableByRFF(t *testing.T) {
	if testing.Short() {
		t.Skip("bug reachability sweep is not -short friendly")
	}
	for _, p := range All() {
		p := p
		if hardPrograms[p.Name] || p.Bug == BugNone {
			continue // no reachable bug to find (or none within budget)
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			rep := core.NewFuzzer(p.Name, p.Body, core.Options{
				Budget: 3000, Seed: 1, StopAtFirstBug: true,
			}).Run()
			if !rep.FoundBug() {
				t.Fatalf("RFF did not reach the bug in %d schedules", rep.Executions)
			}
			got := rep.Failures[0].Failure.Kind
			switch p.Bug {
			case BugDeadlock:
				if got != exec.FailDeadlock {
					t.Logf("note: expected deadlock, first failure was %v (%s)", got,
						rep.Failures[0].Failure.Msg)
				}
			case BugMemory:
				if got != exec.FailMemory {
					t.Logf("note: expected memory failure, first failure was %v (%s)", got,
						rep.Failures[0].Failure.Msg)
				}
			}
			t.Logf("bug at schedule %d (%v: %s)", rep.FirstBug, got, rep.Failures[0].Failure.Msg)
		})
	}
}

// TestReorder100Headline reproduces the paper's Section 2 claim: RFF
// exposes reorder_100 in a handful of schedules while POS fails in any
// reasonable budget.
func TestReorder100Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("headline check is not -short friendly")
	}
	p := MustGet("CS/reorder_100")
	for trial := int64(0); trial < 5; trial++ {
		rep := core.NewFuzzer(p.Name, p.Body, core.Options{
			Budget: 300, Seed: 1000 + trial, StopAtFirstBug: true,
		}).Run()
		if !rep.FoundBug() {
			t.Fatalf("trial %d: RFF missed reorder_100 in %d schedules", trial, rep.Executions)
		}
		if rep.FirstBug > 100 {
			t.Errorf("trial %d: RFF needed %d schedules (paper: ~6)", trial, rep.FirstBug)
		}
	}
	// POS baseline: must NOT find it in the same tiny budget.
	pos := sched.NewPOS()
	for seed := int64(0); seed < 300; seed++ {
		res := exec.Run(p.Name, p.Body, exec.Config{Scheduler: pos, Seed: seed})
		if res.Buggy() {
			t.Fatalf("POS found reorder_100 at seed %d — program too easy", seed)
		}
	}
}
