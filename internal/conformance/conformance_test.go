package conformance

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// smallOpts is the PR-time matrix: a handful of programs against every
// registered strategy, kept small enough for ordinary test runs. The
// nightly CI job runs the full 50-program matrix through rffbench.
func smallOpts(seed int64) Options {
	return Options{
		Programs: 4,
		Seed:     seed,
		Budget:   120,
		GTBudget: 60000,
	}
}

// TestSmallMatrix runs the in-test conformance matrix: every registered
// strategy against generated programs, demanding zero violations.
func TestSmallMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance matrix is slow under -short")
	}
	rep := Run(smallOpts(1))
	if rep.Err != "" {
		t.Fatalf("run aborted: %s", rep.Err)
	}
	if rep.Programs != 4 {
		t.Fatalf("checked %d programs, want 4", rep.Programs)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("conformance violations:\n%s", rep.Summary())
	}
	if rep.GTPairs == 0 {
		t.Fatal("ground truth enumerated zero rf-pairs")
	}
	for _, tr := range rep.Tools {
		if tr.TrialsRun == 0 {
			t.Fatalf("tool %s ran no trials", tr.Tool)
		}
		if tr.Executions == 0 {
			t.Fatalf("tool %s observed no executions — observer not plumbed", tr.Tool)
		}
		if tr.ReplayFailures != 0 {
			t.Fatalf("tool %s: %d replay failures", tr.Tool, tr.ReplayFailures)
		}
		final := tr.Coverage[len(tr.Coverage)-1]
		if final <= 0 || final > 100 {
			t.Fatalf("tool %s: implausible final coverage %.1f%%", tr.Tool, final)
		}
	}
}

// TestDeterministicReport: identical (seed, options) runs produce
// byte-identical reports, and worker count does not change the result.
func TestDeterministicReport(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance matrix is slow under -short")
	}
	opts := smallOpts(2)
	opts.Programs = 2
	a := Run(opts)
	b := Run(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs diverged:\n%s\nvs\n%s", mustJSON(a), mustJSON(b))
	}
	opts.Workers = 4
	c := Run(opts)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("worker count changed the report:\n%s\nvs\n%s", mustJSON(a), mustJSON(c))
	}
	if a.Summary() != b.Summary() {
		t.Fatal("summaries diverged between identical runs")
	}
}

// TestTelemetryCounters: the conformance metrics land in the sink.
func TestTelemetryCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance matrix is slow under -short")
	}
	hub := telemetry.NewHub()
	opts := smallOpts(3)
	opts.Programs = 2
	opts.Telemetry = hub
	rep := Run(opts)
	if rep.Err != "" {
		t.Fatalf("run aborted: %s", rep.Err)
	}
	snap := hub.Snapshot()
	found := false
	for _, m := range snap.Metrics {
		if m.Name == telemetry.MConformancePrograms {
			found = true
			if m.Value != int64(rep.Programs) {
				t.Fatalf("programs counter %d, report says %d", m.Value, rep.Programs)
			}
		}
	}
	if !found {
		t.Fatalf("no %s metric in snapshot", telemetry.MConformancePrograms)
	}
}

// TestUnknownSpecFails: a bad spec aborts the run with an error instead
// of panicking or silently passing.
func TestUnknownSpecFails(t *testing.T) {
	opts := smallOpts(1)
	opts.Specs = []string{"no-such-strategy"}
	rep := Run(opts)
	if rep.Err == "" {
		t.Fatal("unknown spec did not abort the run")
	}
	if rep.OK() {
		t.Fatal("aborted run reports OK")
	}
}

func mustJSON(v any) string {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestShardedRFFConformance holds sharded RFF to the enumeration
// oracle: the shard barrier observes every counted execution, so every
// behavior it reaches is checked against ground truth and every failure
// it reports must replay, as for the sequential loop.
func TestShardedRFFConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance matrix is slow under -short")
	}
	replays := 0
	for _, grammar := range []string{"core", "chan"} {
		for _, seed := range []int64{1, 2} {
			opts := Options{Programs: 6, Seed: seed, Budget: 150, Workers: 2, Grammar: grammar, Specs: []string{"rff"}}
			opts.fill()
			rep := run(context.Background(), opts, strategy.Config{Shards: 2})
			if rep.Err != "" || rep.Programs != 6 {
				t.Fatalf("%s seed=%d: checked %d programs: %s", grammar, seed, rep.Programs, rep.Err)
			}
			if len(rep.Violations) != 0 {
				t.Errorf("%s seed=%d: sharded RFF violations:\n%s", grammar, seed, rep.Summary())
			}
			tr := rep.Tools[0]
			if tr.Executions == 0 || tr.ReplayFailures != 0 {
				t.Errorf("%s seed=%d: observed %d executions, %d replay failures", grammar, seed, tr.Executions, tr.ReplayFailures)
			}
			replays += tr.Replays
		}
	}
	if replays == 0 {
		t.Error("no sharded failure was found, so none was replayed")
	}
}
