package campaign_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"rff/internal/budget"
	"rff/internal/campaign"
)

// budgetedOpts is the small budgeted matrix the determinism tests run.
func budgetedOpts(policy string, workers int) campaign.Config {
	return campaign.Config{
		Trials:   2,
		Budget:   200,
		BaseSeed: 99,
		Workers:  workers,
		Budgeter: &budget.Config{Policy: policy, Epochs: 4, CollectCovers: true},
	}
}

// TestBudgetedMatrixBitIdenticalAcrossWorkerCounts extends the fleet's
// determinism promise to the epoch loop: the outcome matrix AND the
// budget report (allocation trace, per-cell accounting, first-cover
// events) must serialize to identical JSON at any worker count.
func TestBudgetedMatrixBitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 tools x 2 programs x 2 trials x 4 epochs at three worker counts")
	}
	for _, policy := range budget.Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) []byte {
				m := campaign.RunMatrix(
					mustTools(t, "rff", "pos"),
					miniPrograms(t, "CS/account", "CS/lazy01"),
					budgetedOpts(policy, workers),
				)
				data, err := json.Marshal(m)
				if err != nil {
					t.Fatalf("marshaling matrix: %v", err)
				}
				return data
			}
			base := run(1)
			for _, workers := range []int{3, runtime.GOMAXPROCS(0)} {
				if got := run(workers); string(got) != string(base) {
					t.Errorf("budgeted matrix (%s) at %d workers diverged from sequential run",
						policy, workers)
				}
			}
		})
	}
}

// TestBudgetedMatrixConservation checks the report's books: every
// epoch's shares sum to its pool, pools sum to the total entitlement,
// and per-cell spent never exceeds allocated.
func TestBudgetedMatrixConservation(t *testing.T) {
	m := campaign.RunMatrix(
		mustTools(t, "rff", "pos"),
		miniPrograms(t, "CS/account", "CS/lazy01"),
		budgetedOpts("ucb", 2),
	)
	rep := m.BudgetReport
	if rep == nil {
		t.Fatal("budgeted matrix returned no BudgetReport")
	}
	if rep.Policy != "ucb" {
		t.Fatalf("policy = %q", rep.Policy)
	}
	var pools int64
	for _, e := range rep.Trace {
		sum := 0
		for _, s := range e.Shares {
			if s < 0 {
				t.Fatalf("epoch %d: negative share", e.Epoch)
			}
			sum += s
		}
		if sum != e.Pool {
			// The pool may go unspent only once every cell is done.
			live := false
			for _, c := range rep.Cells {
				if !c.Done {
					live = true
				}
			}
			if live || sum != 0 {
				t.Fatalf("epoch %d: shares sum to %d, pool %d", e.Epoch, sum, e.Pool)
			}
		}
		pools += int64(e.Pool)
	}
	// 2 tools x 2 programs x (budget 200 x trials 2) = 1600 entitlement.
	if rep.Pool != 1600 {
		t.Fatalf("pool = %d, want 1600", rep.Pool)
	}
	var spent int64
	for _, c := range rep.Cells {
		if c.Spent > c.Allocated {
			t.Fatalf("cell %s/%s spent %d > allocated %d", c.Tool, c.Program, c.Spent, c.Allocated)
		}
		if len(c.Covers) == 0 && c.NewPairs > 0 {
			t.Fatalf("cell %s/%s: %d new pairs but no covers recorded", c.Tool, c.Program, c.NewPairs)
		}
		spent += c.Spent
	}
	if spent != rep.Spent {
		t.Fatalf("cells spend %d, report says %d", spent, rep.Spent)
	}
	if rep.Spent > rep.Pool {
		t.Fatalf("spent %d exceeds pool %d", rep.Spent, rep.Pool)
	}
}

// TestBudgetedUniformOneEpochMatchesFixed pins the compatibility
// invariant the EpochSeed identity buys: a uniform policy with a
// single epoch is the classic fixed-budget matrix — same seeds, same
// budgets — so FirstBug and Executions must agree cell for cell.
func TestBudgetedUniformOneEpochMatchesFixed(t *testing.T) {
	tools := mustTools(t, "rff", "pos", "genmc")
	progs := miniPrograms(t, "CS/account", "CS/lazy01")
	fixed := campaign.RunMatrix(tools, progs, campaign.Config{
		Trials: 2, Budget: 200, BaseSeed: 7, Workers: 2,
	})
	budgeted := campaign.RunMatrix(tools, progs, campaign.Config{
		Trials: 2, Budget: 200, BaseSeed: 7, Workers: 2,
		Budgeter: &budget.Config{Policy: "uniform", Epochs: 1},
	})
	for _, tool := range fixed.Tools {
		for _, p := range fixed.Programs {
			fo := fixed.Outcomes[tool][p]
			bo := budgeted.Outcomes[tool][p]
			if len(fo) != len(bo) {
				t.Fatalf("%s/%s: trial counts differ: %d vs %d", tool, p, len(fo), len(bo))
			}
			for tr := range fo {
				if fo[tr].FirstBug != bo[tr].FirstBug || fo[tr].Executions != bo[tr].Executions {
					t.Errorf("%s/%s[%d]: fixed (bug=%d execs=%d) vs budgeted (bug=%d execs=%d)",
						tool, p, tr, fo[tr].FirstBug, fo[tr].Executions, bo[tr].FirstBug, bo[tr].Executions)
				}
			}
		}
	}
}

// TestBudgetedMatrixFindsBugs: sanity that adaptive scheduling still
// finds the seeded bugs and reports global first-bug indexes.
func TestBudgetedMatrixFindsBugs(t *testing.T) {
	m := campaign.RunMatrix(
		mustTools(t, "rff"),
		miniPrograms(t, "CS/account"),
		campaign.Config{
			Trials: 2, Budget: 400, BaseSeed: 3, Workers: 2,
			Budgeter: &budget.Config{Policy: "eps-greedy", Epochs: 4},
		},
	)
	found := false
	for _, o := range m.Outcomes["RFF"]["CS/account"] {
		if o.Found() {
			found = true
		}
	}
	if !found {
		t.Fatal("no trial found the CS/account bug under a budgeted matrix")
	}
	cell := m.BudgetReport.Cells[0]
	if !cell.Bug || cell.FirstBug <= 0 {
		t.Fatalf("cell report missed the bug: %+v", cell)
	}
	if cell.FirstBug > m.BudgetReport.Spent {
		t.Fatalf("global first-bug index %d beyond total spent %d", cell.FirstBug, m.BudgetReport.Spent)
	}
}
