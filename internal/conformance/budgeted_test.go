package conformance

import (
	"context"
	"reflect"
	"testing"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/strategy"
)

// budgetedSmallOpts mirrors smallOpts with an adaptive budget policy.
func budgetedSmallOpts(seed int64, policy string) Options {
	o := smallOpts(seed)
	o.Programs = 2
	o.BudgetPolicy = policy
	o.BudgetEpochs = 4
	return o
}

// TestBudgetedConformanceClean: a budgeted conformance run upholds the
// same invariants as the fixed-budget one — zero violations, every
// replay reproduces — and additionally accounts the allocated budget.
func TestBudgetedConformanceClean(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance matrix is slow under -short")
	}
	rep := Run(budgetedSmallOpts(1, "ucb"))
	if rep.Err != "" {
		t.Fatalf("run aborted: %s", rep.Err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("budgeted conformance violations:\n%s", rep.Summary())
	}
	if rep.BudgetPolicy != "ucb" || rep.BudgetEpochs != 4 {
		t.Fatalf("report lost the budget config: %q/%d", rep.BudgetPolicy, rep.BudgetEpochs)
	}
	var allocated, execs int64
	for _, tr := range rep.Tools {
		if tr.TrialsRun == 0 {
			t.Fatalf("tool %s ran no trials", tr.Tool)
		}
		if tr.ReplayFailures != 0 {
			t.Fatalf("tool %s: %d replay failures", tr.Tool, tr.ReplayFailures)
		}
		allocated += tr.Allocated
		execs += tr.Executions
	}
	if allocated == 0 {
		t.Fatal("no tool reports an allocated budget")
	}
	if execs > allocated {
		t.Fatalf("executions %d exceed allocated budget %d", execs, allocated)
	}
}

// TestBudgetedConformanceDeterministic: a budgeted run is a pure
// function of (seed, options) — bit-identical on rerun and at any
// worker count — for every registered policy.
func TestBudgetedConformanceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance matrix is slow under -short")
	}
	for _, policy := range budget.AdaptivePolicies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			opts := budgetedSmallOpts(2, policy)
			a := Run(opts)
			b := Run(opts)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("identical budgeted runs diverged:\n%s\nvs\n%s", mustJSON(a), mustJSON(b))
			}
			opts.Workers = 4
			c := Run(opts)
			if !reflect.DeepEqual(a, c) {
				t.Fatalf("worker count changed the budgeted report:\n%s\nvs\n%s", mustJSON(a), mustJSON(c))
			}
		})
	}
}

// TestBudgetedUniformTTFBSchemaShared: the fixed path populates the
// same TTFB field the budgeted path does, so sched-eval can read either
// report shape. Uses a seed whose programs contain reachable failures.
func TestBudgetedUniformTTFBSchemaShared(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance matrix is slow under -short")
	}
	fixed := Run(smallOpts(1))
	anyBug := false
	for _, tr := range fixed.Tools {
		if tr.BugsFound > 0 {
			anyBug = true
			if tr.TTFB.Samples == 0 {
				t.Fatalf("tool %s found %d bugs but reports no TTFB samples", tr.Tool, tr.BugsFound)
			}
			if tr.TTFB.Median <= 0 || tr.TTFB.Median > float64(fixed.Budget) {
				t.Fatalf("tool %s: implausible TTFB median %.1f", tr.Tool, tr.TTFB.Median)
			}
		} else if tr.TTFB.Samples != 0 {
			t.Fatalf("tool %s found no bugs but reports TTFB samples", tr.Tool)
		}
	}
	if !anyBug {
		t.Skip("seed 1 programs exposed no bugs; TTFB schema not exercised")
	}
}

// TestBudgetedInvalidPolicyPanics: fill() rejects an unknown policy
// loudly — entry points validate before calling Run.
func TestBudgetedInvalidPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid budget policy did not panic")
		}
	}()
	o := budgetedSmallOpts(1, "no-such-policy")
	_ = RunContext(context.Background(), o)
}

// TestDeterministicToolsGetTrialsEntitlement: conformance runs each
// program as a campaign matrix, so at Trials k a deterministic tool's
// single trial absorbs Budget x k executions, exactly as
// strategy.RunMatrix runs it for the same spec, program, seed and budget.
func TestDeterministicToolsGetTrialsEntitlement(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates ground truth for three programs")
	}
	specs := []string{"genmc", "period"}
	beyondBudget := false
	for _, seed := range []int64{1, 2, 3} {
		opts := Options{Programs: 1, Seed: seed, Specs: specs, Trials: 2, Budget: 20}
		rep := Run(opts)
		if rep.Err != "" || rep.Programs != 1 {
			t.Fatalf("seed %d: run checked %d programs: %s", seed, rep.Programs, rep.Err)
		}

		// The run's one program: the generator's first candidate that
		// enumerates completely.
		opts.fill()
		var bp bench.Program
		if _, _, err := Workload(context.Background(), seed, 0, 1, opts.GTBudget, opts.MaxSteps, nil,
			func(p bench.Program, _ *GroundTruth) { bp = p }); err != nil {
			t.Fatal(err)
		}
		m, err := strategy.RunMatrix(context.Background(), specs, []bench.Program{bp}, strategy.Config{
			Trials: 2, Budget: 20, MaxSteps: opts.MaxSteps, BaseSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Tools {
			outs := m.Outcomes[tr.Tool][bp.Name]
			if len(outs) != 1 || tr.TrialsRun != 1 {
				t.Fatalf("seed %d: %s ran %d conformance / %d matrix trials, want 1", seed, tr.Tool, tr.TrialsRun, len(outs))
			}
			if want := int64(outs[0].Executions); tr.Executions != want {
				t.Errorf("seed %d: %s ran %d executions on %s, the matrix %d", seed, tr.Tool, tr.Executions, bp.Name, want)
			}
			beyondBudget = beyondBudget || tr.Executions > int64(opts.Budget)
		}
	}
	if !beyondBudget {
		t.Error("no deterministic trial ran past Budget: the workload does not exercise the Budget x Trials entitlement")
	}
}
