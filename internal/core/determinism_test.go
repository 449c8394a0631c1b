package core_test

// Campaign-level determinism: two fuzzing campaigns with the same program
// and seed must produce identical feedback state — the property the
// interning and buffer-recycling layers must preserve, since corpus
// decisions, power-schedule energy, and every reported statistic flow from
// it.

import (
	"context"
	"reflect"
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
)

func TestCampaignDeterministicWithInterning(t *testing.T) {
	runOnce := func() *core.Report {
		return core.NewFuzzer("reorder", reorder(4), core.Options{
			Budget: 150,
			Seed:   11,
		}).Run()
	}
	a, b := runOnce(), runOnce()

	if a.FirstBug != b.FirstBug {
		t.Errorf("FirstBug diverges: %d vs %d", a.FirstBug, b.FirstBug)
	}
	if a.CorpusSize != b.CorpusSize {
		t.Errorf("CorpusSize diverges: %d vs %d", a.CorpusSize, b.CorpusSize)
	}
	if a.UniquePairs != b.UniquePairs {
		t.Errorf("UniquePairs diverges: %d vs %d", a.UniquePairs, b.UniquePairs)
	}
	if a.UniqueSigs != b.UniqueSigs {
		t.Errorf("UniqueSigs diverges: %d vs %d", a.UniqueSigs, b.UniqueSigs)
	}
	if !reflect.DeepEqual(a.SigFrequencies, b.SigFrequencies) {
		t.Errorf("SigFrequencies diverge:\n  a: %v\n  b: %v", a.SigFrequencies, b.SigFrequencies)
	}
	if a.UniqueSigs == 0 {
		t.Error("campaign observed no combinations")
	}
}

// TestCancelReportIsPrefix pins RunContext's cancellation promise: a
// campaign cancelled right after its k-th execution reports exactly
// what a campaign with budget k reports, failures included.
func TestCancelReportIsPrefix(t *testing.T) {
	const seed = 7
	for _, k := range []int{1, 5, 40, 150} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		got := core.NewFuzzer("reorder", reorder(3), core.Options{
			Budget: 10 * k,
			Seed:   seed,
			ResultObserver: func(*exec.Result) {
				if n++; n == k {
					cancel()
				}
			},
		}).RunContext(ctx)
		cancel()
		want := core.NewFuzzer("reorder", reorder(3), core.Options{Budget: k, Seed: seed}).Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: cancelled report\n  %+v\nwant budget-%d report\n  %+v", k, got, k, want)
		}
		if k == 150 && !want.FoundBug() {
			t.Errorf("k=%d: no failure recorded, so the prefix check never covered one", k)
		}
	}
}
