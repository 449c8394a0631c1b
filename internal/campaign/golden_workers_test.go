package campaign_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"rff/internal/campaign"
)

// TestMatrixBitIdenticalAcrossWorkerCounts is the parallel-orchestration
// golden test: the full matrix result — first-bug schedules, execution
// counts, corpus sizes, and signature-combination counts of every
// (tool, program, trial) cell — must serialize to byte-identical JSON
// whether the fleet ran with 1 worker, 4, or GOMAXPROCS. Any seed
// derivation that leaks stream position, any cross-worker state
// sharing, or any merge-order dependence breaks this.
func TestMatrixBitIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 tools x 3 programs x 3 trials at three worker counts")
	}
	run := func(workers int) []byte {
		m := campaign.RunMatrix(
			mustTools(t, "rff", "pos"),
			miniPrograms(t, "CS/account", "CS/lazy01", "CS/reorder_3"),
			campaign.Config{Trials: 3, Budget: 300, BaseSeed: 99, Workers: workers},
		)
		// MatrixResult marshals deterministically field by field: the
		// Tools/Programs slices pin iteration order and encoding/json
		// sorts the outcome map keys.
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshaling matrix: %v", err)
		}
		return data
	}

	base := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(workers); string(got) != string(base) {
			t.Errorf("matrix at %d workers diverged from sequential run:\n 1: %s\n%2d: %s",
				workers, base, workers, got)
		}
	}
}

// TestTrialSeedProperties pins the seed-derivation contract: seeds
// depend on every identity component and nothing else.
func TestTrialSeedProperties(t *testing.T) {
	base := campaign.TrialSeed(1, "RFF", "CS/account", 0)
	same := campaign.TrialSeed(1, "RFF", "CS/account", 0)
	if base != same {
		t.Fatal("TrialSeed is not a pure function")
	}
	perturbed := []int64{
		campaign.TrialSeed(2, "RFF", "CS/account", 0),
		campaign.TrialSeed(1, "POS", "CS/account", 0),
		campaign.TrialSeed(1, "RFF", "CS/lazy01", 0),
		campaign.TrialSeed(1, "RFF", "CS/account", 1),
		// Concatenation shuffles between tool and program must not
		// collide.
		campaign.TrialSeed(1, "RFFCS/", "account", 0),
	}
	for i, s := range perturbed {
		if s == base {
			t.Errorf("perturbation %d did not change the seed", i)
		}
	}
}
