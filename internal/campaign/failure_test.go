package campaign_test

import (
	"testing"

	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/exec"
	"rff/internal/sched"
	"rff/internal/strategy"
)

// TestOutcomeFailureReplays: every trial's outcome carries its failure
// if and only if it found the bug, and the failure's decisions replay
// to the same kind, thread, location and message — for every default
// strategy, fixed and budgeted, and for sharded RFF.
func TestOutcomeFailureReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the default panel twice and sharded RFF once")
	}
	progs := miniPrograms(t, "CS/account", "CS/reorder_10", "CS/twostage_20")
	sharded, err := strategy.ResolveAll([]string{"rff"}, strategy.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name  string
		tools []campaign.Tool
		bc    *budget.Config
	}{
		{"fixed", mustTools(t, strategy.DefaultSpecs()...), nil},
		{"ucb", mustTools(t, strategy.DefaultSpecs()...), &budget.Config{Policy: "ucb", Epochs: 4}},
		{"shards=2", sharded, nil},
	} {
		m := campaign.RunMatrix(run.tools, progs, campaign.Config{
			Trials: 2, Budget: 60, MaxSteps: 5000, BaseSeed: 1, Workers: 2, Budgeter: run.bc,
		})
		found := 0
		for _, tool := range m.Tools {
			for _, p := range progs {
				for tr, o := range m.Outcomes[tool][p.Name] {
					if o.Found() != (o.Failure != nil) {
						t.Errorf("%s: %s/%s[%d]: Found() = %t but Failure = %v", run.name, tool, p.Name, tr, o.Found(), o.Failure)
						continue
					}
					if !o.Found() {
						continue
					}
					found++
					want := o.Failure.Failure
					res := exec.Run(p.Name, p.Body, exec.Config{
						Scheduler: sched.NewReplay(o.Failure.Decisions),
						MaxSteps:  5000,
					})
					got := res.Failure
					if got == nil || got.Kind != want.Kind || got.Thread != want.Thread || got.Loc != want.Loc || got.Msg != want.Msg {
						t.Errorf("%s: %s/%s[%d]: decisions replayed to %v, want %v", run.name, tool, p.Name, tr, got, want)
					}
				}
			}
		}
		if found == 0 {
			t.Errorf("%s: no trial found a bug, so nothing was replayed", run.name)
		}
	}
}
