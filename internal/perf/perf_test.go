package perf_test

import (
	"os"
	"path/filepath"
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/perf"
)

func TestProfileHelpersNoOpOnEmptyPath(t *testing.T) {
	stop, err := perf.StartCPUProfile("")
	if err != nil {
		t.Fatalf("empty cpu profile path: %v", err)
	}
	stop()
	if err := perf.WriteHeapProfile(""); err != nil {
		t.Fatalf("empty mem profile path: %v", err)
	}
}

func TestProfileFilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := perf.StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	p := bench.MustGet("CS/reorder_10")
	core.NewFuzzer(p.Name, p.Body, core.Options{Budget: 20, MaxSteps: 5000, Seed: 1}).Run()
	stop()
	if err := perf.WriteHeapProfile(mem); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestMeasureShards(t *testing.T) {
	sc := perf.MeasureShards(bench.MustGet("CS/reorder_10"), 200, 5000, 1, []int{1, 2})
	if len(sc.Points) != 2 || sc.Points[0].Shards != 1 || sc.Points[1].Shards != 2 {
		t.Fatalf("want points at 1 and 2 shards, got %+v", sc.Points)
	}
	if sc.Points[0].Speedup != 1 {
		t.Errorf("the 1-shard baseline has speedup %v, want 1", sc.Points[0].Speedup)
	}
	for _, pt := range sc.Points {
		if pt.Executions == 0 || pt.ExecsPerSec <= 0 {
			t.Errorf("empty measurement: %+v", pt)
		}
	}
	// The shard runner's determinism contract.
	if !sc.ResultsIdentical {
		t.Fatal("reports diverged between 1 and 2 shards")
	}
}
