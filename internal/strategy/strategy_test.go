package strategy_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/exec"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// TestCanonicalRoundTrip: parsing a spec, canonicalizing it, and
// re-canonicalizing the result must be a fixed point — the canonical
// form is itself a valid spec naming the same tool.
func TestCanonicalRoundTrip(t *testing.T) {
	specs := []string{
		"rff", "rff:nofb", "pos", "pct", "pct:3", "pct:7", "random",
		"qlearn", "qlearn:alpha=0.3:gamma=0.9", "qlearn:eps=0.25",
		"period", "period:2", "period:3", "genmc",
		"RFF", " pos ", "PCT:7", // case/whitespace insensitivity
	}
	for _, s := range specs {
		c1, err := strategy.Canonical(s)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", s, err)
		}
		c2, err := strategy.Canonical(c1)
		if err != nil {
			t.Fatalf("Canonical not re-parseable: Canonical(%q) = %q: %v", s, c1, err)
		}
		if c1 != c2 {
			t.Errorf("Canonical not idempotent: %q -> %q -> %q", s, c1, c2)
		}
		// The canonical spec and the original must name the same tool.
		a := strategy.MustResolve(s, strategy.Config{})
		b := strategy.MustResolve(c1, strategy.Config{})
		if a.Name() != b.Name() {
			t.Errorf("%q and its canonical %q resolve to different tools: %s vs %s",
				s, c1, a.Name(), b.Name())
		}
	}
}

// TestSpecToToolName pins the spec -> canonical tool name mapping. The
// pre-existing names (RFF, POS, PCT3, ...) seed the golden matrix
// tests' trial seeds, so changing any of them breaks bit-compatibility.
func TestSpecToToolName(t *testing.T) {
	want := map[string]string{
		"rff":              "RFF",
		"rff:nofb":         "RFF-nofb",
		"pos":              "POS",
		"pct":              "PCT3",
		"pct:3":            "PCT3",
		"pct:7":            "PCT7",
		"random":           "Random",
		"qlearn":           "QLearning-RF",
		"qlearn:alpha=0.3": "QLearning-RF(alpha=0.3)",
		"period":           "PERIOD*",
		"period:2":         "PERIOD*",
		"period:3":         "PERIOD*(b=3)",
		"genmc":            "GenMC*",
	}
	for spec, name := range want {
		tl, err := strategy.Resolve(spec, strategy.Config{})
		if err != nil {
			t.Errorf("Resolve(%q): %v", spec, err)
			continue
		}
		if tl.Name() != name {
			t.Errorf("Resolve(%q).Name() = %q, want %q", spec, tl.Name(), name)
		}
	}
}

// TestQLearnCanonicalization: hyperparameters canonicalize to a fixed
// key order with canonical float formatting, independent of input order.
func TestQLearnCanonicalization(t *testing.T) {
	a, err := strategy.Canonical("qlearn:gamma=0.90:alpha=0.50")
	if err != nil {
		t.Fatal(err)
	}
	b, err := strategy.Canonical("qlearn:alpha=0.5:gamma=0.9")
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != "qlearn:alpha=0.5:gamma=0.9" {
		t.Fatalf("qlearn canonicalization diverged: %q vs %q", a, b)
	}
}

func TestMalformedSpecsRejected(t *testing.T) {
	cases := []string{
		"", ":", "pct:", "pct:0", "pct:-1", "pct:x", "pct:3:4",
		"period:0", "period:two", "rff:fast", "pos:1",
		"qlearn:alpha", "qlearn:alpha=0", "qlearn:alpha=2", "qlearn:alpha=0.5:alpha=0.5",
		"qlearn:learningrate=0.5", "qlearn:reward=0", "pct3:3",
	}
	for _, s := range cases {
		if _, err := strategy.Resolve(s, strategy.Config{}); err == nil {
			t.Errorf("Resolve(%q) unexpectedly succeeded", s)
		}
	}
}

// TestUnknownSpecErrorListsRegistered: the unknown-strategy error must
// enumerate the registry so a CLI typo is self-correcting.
func TestUnknownSpecErrorListsRegistered(t *testing.T) {
	_, err := strategy.Resolve("pso", strategy.Config{})
	if err == nil {
		t.Fatal("unknown strategy resolved")
	}
	for _, name := range strategy.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered strategy %q", err, name)
		}
	}
}

// TestRemovedAliasRejected: the retired "pct3" and "rff-nofb"
// spellings are unknown strategies; "pct:3" and "rff:nofb" name them.
func TestRemovedAliasRejected(t *testing.T) {
	for _, spec := range []string{"pct3", "rff-nofb"} {
		if c, err := strategy.Canonical(spec); err == nil {
			t.Errorf("Canonical(%s) = %q, want an unknown-strategy error", spec, c)
		}
	}
}

// TestDefaultSpecs pins the evaluation panel and its table order.
func TestDefaultSpecs(t *testing.T) {
	tools, err := strategy.ResolveAll(strategy.DefaultSpecs(), strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"PCT3", "PERIOD*", "RFF", "POS", "QLearning-RF", "GenMC*"}
	if len(tools) != len(want) {
		t.Fatalf("DefaultSpecs resolved to %d tools, want %d", len(tools), len(want))
	}
	for i, tl := range tools {
		if tl.Name() != want[i] {
			t.Errorf("DefaultSpecs[%d] = %s, want %s", i, tl.Name(), want[i])
		}
	}
}

func TestResolveAllRejectsDuplicates(t *testing.T) {
	// "pct" defaults to depth 3, so it collides with the explicit spec.
	if _, err := strategy.ResolveAll([]string{"pct:3", "pct"}, strategy.Config{}); err == nil {
		t.Fatal("duplicate canonical specs accepted")
	}
	if _, err := strategy.ResolveAll([]string{"pct:3", "pct:7"}, strategy.Config{}); err != nil {
		t.Fatalf("distinct pct depths rejected: %v", err)
	}
}

func TestParseSpecs(t *testing.T) {
	got, err := strategy.ParseSpecs(" pos, pct:7 ,rff")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "pos" || got[1] != "pct:7" || got[2] != "rff" {
		t.Fatalf("ParseSpecs = %v", got)
	}
	for _, bad := range []string{"", "pos,,rff", ","} {
		if _, err := strategy.ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q) unexpectedly succeeded", bad)
		}
	}
}

// TestEveryStrategyHonorsCancellation: a trial started under an already
// cancelled context must stop within one scheduling step — no strategy
// may burn a multi-million-schedule budget first. This covers every
// registered entry, so a new strategy cannot land without wiring ctx
// through its scheduler loop.
func TestEveryStrategyHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := bench.MustGet("SafeStack")
	const hugeBudget = 50_000_000
	for _, e := range strategy.Entries() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tl := strategy.MustResolve(e.Name, strategy.Config{})
			start := time.Now()
			out := tl.Run(ctx, p, hugeBudget, 0, 1)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("cancelled trial still took %v", elapsed)
			}
			if !out.Errored() {
				t.Fatalf("cancelled trial did not record an error: %+v", out)
			}
			if out.Found() {
				t.Fatalf("cancelled trial claims a bug: %+v", out)
			}
			// At most one scheduling step ran; a cancelled partial
			// execution is discarded, never counted.
			if out.Executions != 0 {
				t.Fatalf("cancelled trial counted %d executions, want 0", out.Executions)
			}
		})
	}
}

// TestMidTrialCancellationStopsPromptly: cancelling a running trial cuts
// it off mid-budget, and the outcome reports how far it got.
func TestMidTrialCancellationStopsPromptly(t *testing.T) {
	p := bench.MustGet("SafeStack")
	const hugeBudget = 50_000_000
	for _, spec := range []string{"rff", "pos"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			tl := strategy.MustResolve(spec, strategy.Config{})
			start := time.Now()
			out := tl.Run(ctx, p, hugeBudget, 0, 1)
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Fatalf("cancelled trial still took %v", elapsed)
			}
			if !out.Errored() {
				t.Fatalf("aborted trial did not record an error: %+v", out)
			}
			if out.Executions >= hugeBudget {
				t.Fatalf("trial ran its full %d budget despite cancellation", out.Executions)
			}
		})
	}
}

// TestSystematicToolsCountTelemetry: GenMC* and PERIOD* run through the
// same trial loop as every scheduler, so their executions reach the
// schedules_executed and engine_executions counters.
func TestSystematicToolsCountTelemetry(t *testing.T) {
	for _, spec := range []string{"genmc", "period"} {
		hub := telemetry.NewHub()
		tool := strategy.MustResolve(spec, strategy.Config{Telemetry: hub})
		out := tool.Run(context.Background(), bench.MustGet("CS/reorder_3"), 40, 0, 1)
		if out.Executions == 0 {
			t.Fatalf("%s ran no executions", spec)
		}
		snap := hub.Snapshot()
		for _, m := range []string{telemetry.MSchedulesExecuted, telemetry.MEngineExecutions} {
			if got := snap.Total(m); got != int64(out.Executions) {
				t.Errorf("%s: %s = %d, want Outcome.Executions = %d", spec, m, got, out.Executions)
			}
		}
	}
}

// TestRunMatrixObservesEachExecutionOnce: RunMatrix hands one Config to
// both Resolve and the campaign runner, and only Resolve attaches
// Config.Observer, so the observer sees every counted execution exactly
// once — fixed or budgeted, sequential or sharded.
func TestRunMatrixObservesEachExecutionOnce(t *testing.T) {
	progs := []bench.Program{bench.MustGet("CS/account"), bench.MustGet("CS/reorder_3")}
	for _, bc := range []*budget.Config{nil, {Policy: "ucb", Epochs: 3}} {
		for _, shards := range []int{0, 2} {
			var seen atomic.Int64
			m, err := strategy.RunMatrix(context.Background(), []string{"rff", "pos", "genmc"}, progs, strategy.Config{
				Observer: func(*exec.Result) { seen.Add(1) },
				Shards:   shards,
				Trials:   2,
				Budget:   40,
				BaseSeed: 3,
				Workers:  2,
				Budgeter: bc,
			})
			if err != nil {
				t.Fatal(err)
			}
			var want int64
			for _, tool := range m.Tools {
				for _, p := range m.Programs {
					for _, o := range m.Outcomes[tool][p] {
						want += int64(o.Executions)
					}
				}
			}
			if want == 0 || seen.Load() != want {
				t.Errorf("budgeter %v, shards %d: observer saw %d executions, outcomes count %d", bc, shards, seen.Load(), want)
			}
		}
	}
}
