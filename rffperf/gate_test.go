package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/exec"
)

// accountCampaigns is a small campaign set that finds CS/account's bug
// within a few schedules and keeps fuzzing past it.
func accountCampaigns() []campaignSpec {
	return campaignSet(1, "test", []progCount{{"CS/account", 2}}, 60, 0)
}

func fuzz(c campaignSpec) *core.Report { return core.NewFuzzer(c.name, c.prog, c.opts).Run() }

func runAccount(o *outcome, runOne func(campaignSpec) *core.Report) {
	set := accountCampaigns()
	runCampaigns(o, config{seed: 1, seconds: 0.01}, len(set), 1, func() {}, func(int) []campaignSpec { return set }, runOne)
}

func TestCampaignGatePassesUnchangedResults(t *testing.T) {
	o := newOutcome()
	runAccount(o, fuzz)
	if o.failed != 0 || len(o.problems) != 0 {
		t.Fatalf("gate failed on unchanged results: failed=%d %v", o.failed, o.problems)
	}
	if got := o.metrics["bugs_found_frac"].Value; got == 0 {
		t.Fatal("test campaigns found no bug, so the gate had nothing to replay")
	}
}

// A corrupted decision sequence in a reported failure must not replay.
func TestCampaignGateFiresOnCorruptedDecisions(t *testing.T) {
	o := newOutcome()
	runAccount(o, func(c campaignSpec) *core.Report {
		rep := fuzz(c)
		if len(rep.Failures) > 0 {
			d := rep.Failures[0].Decisions
			for i := range d {
				d[i] = 1
			}
		}
		return rep
	})
	if o.failed == 0 || len(o.problems) == 0 {
		t.Fatal("gate accepted a failure whose decisions were corrupted")
	}
}

func TestReplayFailureChecksKind(t *testing.T) {
	c := accountCampaigns()[0]
	rep := fuzz(c)
	if len(rep.Failures) == 0 {
		t.Fatal("no failure to replay")
	}
	f := rep.Failures[0]
	if err := replayFailure(c.name, c.prog, maxSteps, f.Failure.Kind, f.Decisions); err != nil {
		t.Fatalf("recorded failure does not replay: %v", err)
	}
	if err := replayFailure(c.name, c.prog, maxSteps, f.Failure.Kind+1, f.Decisions); err == nil {
		t.Fatal("replay accepted a different failure kind")
	}
}

// The traced loop must reproduce core.Fuzzer exactly in both passes,
// and diffReports must notice a planted difference.
func TestTracedCampaignMatchesFuzzer(t *testing.T) {
	for _, name := range []string{"CS/reorder_10", "CS/account", "SafeStack"} {
		p := bench.MustGet(name)
		for _, stop := range []bool{false, true} {
			opts := core.Options{Budget: 80, MaxSteps: maxSteps, Seed: 7, StopAtFirstBug: stop}
			want := core.NewFuzzer(name, p.Body, opts).Run()
			for _, allocMode := range []bool{false, true} {
				got := tracedCampaign(newLayerTrace(allocMode), name, p.Body, opts)
				if d := diffReports(want, got); d != "" {
					t.Fatalf("%s (stop=%v, alloc=%v): traced report differs: %s", name, stop, allocMode, d)
				}
			}
			got := tracedCampaign(newLayerTrace(false), name, p.Body, opts)
			got.UniqueSigs++
			if diffReports(want, got) == "" {
				t.Fatalf("%s: diffReports missed a planted difference", name)
			}
			if len(got.Failures) > 0 {
				got.UniqueSigs--
				got.Failures[0].Decisions = append([]exec.ThreadID(nil), got.Failures[0].Decisions...)
				got.Failures[0].Decisions[0]++
				if diffReports(want, got) == "" {
					t.Fatalf("%s: diffReports missed a planted decision change", name)
				}
			}
		}
	}
}

func TestInterpMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []int
		want float64
	}{
		{[]int{1, 5, 9}, 5},
		{[]int{1, 2, 3, 4}, 2.5},
		{[]int{2, 2, 3, 3}, 2.5},
		{[]int{1, 2, 2, 2, 2, 9}, 2},
	} {
		if got := interpMedian(tc.xs); got != tc.want {
			t.Errorf("interpMedian(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics this
// program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if want := workloadNames(); !slices.Equal(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		got := make(map[string]string)
		for _, m := range c.declared {
			got[m.Name] = m.Unit
		}
		want := make(map[string]string)
		for _, m := range c.printed {
			want[m.name] = m.unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("declared metrics %v, program prints %v", got, want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "deep", "--trace", "2"},
		{"--workload", "deep", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}
