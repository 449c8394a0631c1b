package triage_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/progen"
	"rff/internal/strategy"
	"rff/internal/triage"
)

// collector records one artifact per failing execution it observes.
type collector struct {
	mu   sync.Mutex
	arts []*core.Artifact
}

func (c *collector) observe(res *exec.Result) {
	if res.Failure == nil {
		return
	}
	f := *res.Failure
	a := &core.Artifact{
		Program:     res.Program,
		Seed:        res.Seed,
		FailureKind: f.Kind.String(),
		FailureMsg:  f.Msg,
		FailureLoc:  f.Loc,
		Thread:      int32(f.Thread),
	}
	for _, d := range res.Trace.ThreadOrder() {
		a.Decisions = append(a.Decisions, int32(d))
	}
	c.mu.Lock()
	c.arts = append(c.arts, a)
	c.mu.Unlock()
}

// originKey is the ground-truth bug identity of an *unminimized*
// artifact: progen failure messages and locations are properties of the
// violated statement, not of the schedule, so equal (kind, loc, msg)
// means the same assert bug. Deadlock messages are schedule-dependent,
// but a progen program draws at most two mutexes, so any two deadlock
// manifestations in one program share the same contended cycle.
func originKey(a *core.Artifact) string {
	if a.FailureKind == "deadlock" {
		return "deadlock"
	}
	return fmt.Sprintf("%s|%s|%s", a.FailureKind, a.FailureLoc, a.FailureMsg)
}

// TestClusterSignatureStability is the satellite property test: the
// same progen-generated bug found by rff, pos, and pct:3 at three
// different seeds must land in one cluster. It scans the generator
// stream until at least 10 programs contribute a bug found under
// multiple (tool, seed) configurations, and asserts every artifact
// group with equal ground-truth identity maps to exactly one cluster.
func TestClusterSignatureStability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-tool property sweep")
	}
	specs := []string{"rff", "pos", "pct:3"}
	seeds := []int64{101, 202, 303}
	gen := progen.NewGenerator(5, 0)
	tr := triage.New(triage.Config{})
	checked := 0
	for scanned := 0; checked < 10 && scanned < 120; scanned++ {
		p := gen.Next()
		col := &collector{}
		for _, spec := range specs {
			tool, err := strategy.Resolve(spec, strategy.Config{
				Observer: campaign.ResultObserver(col.observe),
				Budget:   300,
			})
			if err != nil {
				t.Fatalf("resolve %s: %v", spec, err)
			}
			for _, seed := range seeds {
				tool.Run(context.Background(), p.Bench(), 300, 0, seed)
			}
		}
		groups := map[string][]*core.Artifact{}
		for _, a := range col.arts {
			groups[originKey(a)] = append(groups[originKey(a)], a)
		}
		counted := false
		for key, arts := range groups {
			if len(arts) < 2 {
				continue // a bug one configuration found proves nothing
			}
			clusters := map[string]bool{}
			for _, a := range arts {
				out, err := tr.Add(a, "test")
				if err != nil {
					t.Fatalf("%s %s: %v", p.Name, key, err)
				}
				clusters[out.ClusterID] = true
			}
			if len(clusters) != 1 {
				t.Errorf("%s: bug %q split into %d clusters from %d artifacts",
					p.Name, key, len(clusters), len(arts))
			}
			counted = true
		}
		if counted {
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d programs contributed multi-config bugs; need 10", checked)
	}
	t.Logf("checked %d programs, %d clusters total", checked, tr.Len())
}
