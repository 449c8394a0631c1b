package campaign_test

import (
	"encoding/json"
	"testing"

	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/exec"
	"rff/internal/strategy"
)

// TestMatrixObserveSeesEachTrial: the Observe hook hands every (tool,
// program, trial) cell its own observer, that observer sees exactly the
// trial's counted executions across all its epochs, and observing
// changes nothing in the result, fixed or budgeted.
func TestMatrixObserveSeesEachTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the default panel twice per budget mode")
	}
	tools := mustTools(t, strategy.DefaultSpecs()...)
	progs := miniPrograms(t, "CS/account", "CS/reorder_10", "CS/twostage_20")
	type key struct {
		tool, program string
		trial         int
	}
	for _, bc := range []*budget.Config{nil, {Policy: "ucb", Epochs: 4}} {
		name := "fixed"
		if bc != nil {
			name = bc.Policy
		}
		opts := campaign.MatrixOptions{Trials: 2, Budget: 60, MaxSteps: 5000, BaseSeed: 1, Workers: 2, Budgeter: bc}
		plain, err := json.Marshal(campaign.RunMatrix(tools, progs, opts))
		if err != nil {
			t.Fatal(err)
		}

		seen := make(map[key]*int)
		opts.Observe = func(tool, program string, trial int) campaign.ResultObserver {
			k := key{tool, program, trial}
			if seen[k] == nil {
				seen[k] = new(int)
			}
			n := seen[k]
			return func(res *exec.Result) {
				if res.Program != program {
					t.Errorf("%s: observer of %s/%s[%d] saw an execution of %s", name, tool, program, trial, res.Program)
				}
				*n++
			}
		}
		m := campaign.RunMatrix(tools, progs, opts)
		observed, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(observed) != string(plain) {
			t.Errorf("%s: observing changed the matrix result", name)
		}

		for k, n := range seen {
			outs := m.Outcomes[k.tool][k.program]
			if k.trial >= len(outs) {
				t.Errorf("%s: observer requested for %s/%s[%d], which the matrix does not have", name, k.tool, k.program, k.trial)
				continue
			}
			if want := outs[k.trial].Executions; *n != want {
				t.Errorf("%s: %s/%s[%d] observer saw %d executions, outcome ran %d", name, k.tool, k.program, k.trial, *n, want)
			}
		}
		for tool, byProg := range m.Outcomes {
			for program, outs := range byProg {
				for trial, o := range outs {
					if o.Executions > 0 && seen[key{tool, program, trial}] == nil {
						t.Errorf("%s: %s/%s[%d] ran %d executions but no observer was requested", name, tool, program, trial, o.Executions)
					}
				}
			}
		}
	}
}
