package campaign_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// mustTools resolves strategy specs into campaign tool lineups.
func mustTools(t *testing.T, specs ...string) []campaign.Tool {
	t.Helper()
	tools, err := strategy.ResolveAll(specs, strategy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return tools
}

func miniPrograms(t *testing.T, names ...string) []bench.Program {
	t.Helper()
	var out []bench.Program
	for _, n := range names {
		out = append(out, bench.MustGet(n))
	}
	return out
}

func TestMatrixShapeAndDeterminism(t *testing.T) {
	tools := mustTools(t, "rff", "pos", "genmc")
	progs := miniPrograms(t, "CS/account", "CS/lazy01")
	opts := campaign.Config{Trials: 3, Budget: 200, BaseSeed: 7, Workers: 2}
	m1 := campaign.RunMatrix(tools, progs, opts)
	m2 := campaign.RunMatrix(tools, progs, opts)

	if len(m1.Tools) != 3 || len(m1.Programs) != 2 {
		t.Fatalf("bad matrix shape: %v %v", m1.Tools, m1.Programs)
	}
	// Deterministic tool runs one trial; randomized tools run three.
	if got := len(m1.Outcomes["GenMC*"]["CS/account"]); got != 1 {
		t.Fatalf("deterministic tool should run 1 trial, got %d", got)
	}
	if got := len(m1.Outcomes["RFF"]["CS/account"]); got != 3 {
		t.Fatalf("RFF should run 3 trials, got %d", got)
	}
	// Same seed, same everything, the failure's replay record included.
	for _, tool := range m1.Tools {
		for _, p := range m1.Programs {
			a, b := m1.Outcomes[tool][p], m2.Outcomes[tool][p]
			for i := range a {
				if !reflect.DeepEqual(a[i], b[i]) {
					t.Fatalf("matrix not reproducible at %s/%s[%d]: %+v vs %+v", tool, p, i, a[i], b[i])
				}
			}
		}
	}
}

func TestEasyBugsFoundByAllTools(t *testing.T) {
	tools := mustTools(t, "rff", "pos", "pct:3", "period", "qlearn")
	progs := miniPrograms(t, "CS/account")
	m := campaign.RunMatrix(tools, progs, campaign.Config{Trials: 2, Budget: 500, BaseSeed: 1})
	for _, tool := range m.Tools {
		for _, o := range m.Outcomes[tool]["CS/account"] {
			if !o.Found() {
				t.Errorf("%s missed the trivial account bug (%d schedules)", tool, o.Executions)
			}
		}
	}
}

func TestCumulativeCurveMonotone(t *testing.T) {
	tools := []campaign.Tool{campaign.RFFTool{}}
	progs := miniPrograms(t, "CS/account", "CS/lazy01", "CS/reorder_3")
	m := campaign.RunMatrix(tools, progs, campaign.Config{Trials: 3, Budget: 300, BaseSeed: 2})
	curve := m.CumulativeCurve("RFF")
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Schedules < curve[i-1].Schedules || curve[i].Bugs != curve[i-1].Bugs+1 {
			t.Fatalf("curve not cumulative at %d: %+v", i, curve)
		}
	}
	if curve[len(curve)-1].Bugs != 9 { // 3 programs x 3 trials, all found
		t.Fatalf("expected 9 cumulative bugs, got %d", curve[len(curve)-1].Bugs)
	}
}

func TestBugsFoundPerTrialAndWins(t *testing.T) {
	tools := mustTools(t, "rff", "pos")
	progs := miniPrograms(t, "CS/reorder_20", "CS/account")
	m := campaign.RunMatrix(tools, progs, campaign.Config{Trials: 3, Budget: 400, BaseSeed: 3})
	rff := m.BugsFoundPerTrial("RFF")
	if len(rff) != 3 {
		t.Fatalf("want 3 trial counts, got %v", rff)
	}
	for _, c := range rff {
		if c != 2 {
			t.Fatalf("RFF should find both bugs every trial, got %v", rff)
		}
	}
	// POS cannot find reorder_20 in 400 schedules; RFF wins significantly.
	aw, bw := m.SignificantWins("RFF", "POS", 0.05)
	if aw < 1 {
		t.Errorf("expected RFF to win significantly on reorder_20 (wins=%d)", aw)
	}
	if bw != 0 {
		t.Errorf("POS should not beat RFF significantly anywhere (wins=%d)", bw)
	}
}

func TestFig5Distributions(t *testing.T) {
	p := bench.MustGet("SafeStack")
	const n = 400
	pos := campaign.RFDistributionPOS(p, n, 11, 0)
	rff := campaign.RFDistributionRFF(p, n, 11, 0, true)
	if pos.Schedules != n || rff.Schedules != n {
		t.Fatalf("wrong schedule counts: %d %d", pos.Schedules, rff.Schedules)
	}
	if pos.Combinations() < 2 || rff.Combinations() < 2 {
		t.Fatalf("SafeStack must show multiple rf combinations: pos=%d rff=%d",
			pos.Combinations(), rff.Combinations())
	}
	if s := pos.MaxShare(); s <= 0 || s > 1 {
		t.Fatalf("bad max share %v", s)
	}
	total := 0
	for _, f := range rff.Freq {
		total += f
	}
	if total != n {
		t.Fatalf("frequencies must sum to schedules: %d != %d", total, n)
	}
}

func TestOutcomeSampleCensoring(t *testing.T) {
	found := campaign.Outcome{FirstBug: 17, Executions: 17, Budget: 100}
	miss := campaign.Outcome{Executions: 100, Budget: 100}
	if s := found.Sample(); !s.Observed || s.Time != 17 {
		t.Fatalf("bad sample %+v", s)
	}
	if s := miss.Sample(); s.Observed || s.Time != 100 {
		t.Fatalf("bad censored sample %+v", s)
	}
}

// panicTool blows up on every trial — the infrastructure-failure case the
// matrix runner must survive.
type panicTool struct{}

func (panicTool) Name() string        { return "Panicker" }
func (panicTool) Deterministic() bool { return false }
func (panicTool) Run(context.Context, bench.Program, int, int, int64) campaign.Outcome {
	panic("tool exploded")
}

func TestMatrixRecoversTrialPanics(t *testing.T) {
	tools := append([]campaign.Tool{panicTool{}}, mustTools(t, "pos")...)
	progs := miniPrograms(t, "CS/account")
	m := campaign.RunMatrix(tools, progs, campaign.Config{Trials: 2, Budget: 300, BaseSeed: 3})

	// Every panicking trial is recorded as a failed outcome, not a crash.
	for tr, o := range m.Outcomes["Panicker"]["CS/account"] {
		if !o.Errored() || o.Found() {
			t.Fatalf("trial %d should have errored: %+v", tr, o)
		}
		if o.Budget != 300 {
			t.Fatalf("errored trial lost its budget: %+v", o)
		}
		// The recovered stack is captured, points at the panic site, and
		// is scrubbed of its nondeterministic goroutine header.
		if !strings.Contains(o.Stack, "panicTool") {
			t.Fatalf("trial %d stack does not reach the panic site:\n%s", tr, o.Stack)
		}
		if strings.HasPrefix(o.Stack, "goroutine ") {
			t.Fatalf("trial %d stack kept its goroutine header:\n%s", tr, o.Stack)
		}
		// Errored trials count as censored no-bug samples.
		if s := o.Sample(); s.Observed || s.Time != 300 {
			t.Fatalf("bad censored sample for errored trial: %+v", s)
		}
	}
	// The healthy tool is unaffected.
	for _, o := range m.Outcomes["POS"]["CS/account"] {
		if o.Errored() || !o.Found() {
			t.Fatalf("POS trial harmed by sibling panics: %+v", o)
		}
	}
	errs := m.TrialErrors()
	if len(errs) != 2 {
		t.Fatalf("TrialErrors = %v, want 2 entries", errs)
	}
	for _, e := range errs {
		if !strings.Contains(e, "tool exploded") || !strings.Contains(e, "Panicker/CS/account") {
			t.Fatalf("unhelpful trial error %q", e)
		}
		if !strings.Contains(e, "panicTool") {
			t.Fatalf("trial error lost the panic stack: %q", e)
		}
	}
}

func TestMatrixTelemetry(t *testing.T) {
	var buf bytes.Buffer
	hub := telemetry.NewHub()
	hub.Events = telemetry.NewEventWriter(&buf)

	tools := []campaign.Tool{campaign.RFFTool{Telemetry: hub}, panicTool{}}
	progs := miniPrograms(t, "CS/account", "CS/lazy01")
	m := campaign.RunMatrix(tools, progs, campaign.Config{
		Trials: 2, Budget: 200, BaseSeed: 5, Telemetry: hub,
	})
	hub.Flush()

	snap := hub.Snapshot()
	jobs := int64(len(m.Tools) * len(m.Programs) * 2)
	if got := snap.Total(telemetry.MTrialsDone); got != jobs {
		t.Fatalf("trials_done = %d, want %d", got, jobs)
	}
	if got := snap.Value(telemetry.MTrialsDone,
		telemetry.L("tool", "RFF"), telemetry.L("program", "CS/account")); got != 2 {
		t.Fatalf("per-cell trials_done = %d, want 2", got)
	}
	if got := snap.Total(telemetry.MTrialPanics); got != 4 {
		t.Fatalf("trial_panics = %d, want 4", got)
	}
	// The RFF trials carried the sink all the way into the fuzzer.
	if got := snap.Total(telemetry.MSchedulesExecuted); got == 0 {
		t.Fatal("fuzzer-level schedules_executed never incremented through the matrix")
	}

	var evs []telemetry.Event
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		evs = append(evs, ev)
	}
	if len(evs) < 2 || evs[0].Kind != telemetry.EvCampaignStart || evs[len(evs)-1].Kind != telemetry.EvCampaignDone {
		t.Fatalf("event stream not bracketed by campaign start/done (%d events)", len(evs))
	}
	// A fixed matrix carries no budget series or report.
	if m.BudgetReport != nil {
		t.Fatalf("fixed matrix produced a budget report: %+v", m.BudgetReport)
	}
	if got := snap.Total(telemetry.MBudgetEpochs); got != 0 {
		t.Fatalf("fixed matrix counted %d budget epochs", got)
	}
	// Every trial ends in exactly one terminal event, emitted at the
	// final barrier with its cell identity: trial-done for a healthy
	// trial or trial_error (with the stack) for a panicked one.
	trialDone, trialError := 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case telemetry.EvBudgetEpoch:
			t.Fatalf("fixed matrix emitted a budget-epoch event: %+v", ev.Fields)
		case telemetry.EvTrialDone:
			trialDone++
			if ev.Fields["tool"] == nil || ev.Fields["program"] == nil || ev.Fields["trial"] == nil {
				t.Fatalf("trial-done event missing cell identity: %+v", ev.Fields)
			}
		case telemetry.EvTrialError:
			trialError++
			if s, _ := ev.Fields["stack"].(string); !strings.Contains(s, "panicTool") {
				t.Fatalf("trial_error event lost the panic stack: %+v", ev.Fields)
			}
		}
	}
	if int64(trialDone+trialError) != jobs {
		t.Fatalf("terminal trial events = %d+%d, want %d", trialDone, trialError, jobs)
	}
	if trialError != 4 {
		t.Fatalf("trial_error events = %d, want 4", trialError)
	}
	// The fleet-level series arrived through the same sink: one cell per
	// job, durations for each, and an idle pool at the barrier.
	if got := snap.Total(telemetry.MFleetCellsDone); got != jobs {
		t.Fatalf("fleet_cells_done = %d, want %d", got, jobs)
	}
	// Cell durations are labeled by strategy so a snapshot separates
	// per-tool timing; the per-spec series must add up to one
	// observation per job.
	var durObs int64
	for _, tool := range m.Tools {
		if h := snap.Histogram(telemetry.MFleetCellDuration, telemetry.L("spec", tool)); h != nil {
			durObs += h.Count
		}
	}
	if durObs != jobs {
		t.Fatalf("fleet_cell_duration observations = %d, want %d", durObs, jobs)
	}
	if got := snap.Value(telemetry.MFleetWorkersBusy); got != 0 {
		t.Fatalf("fleet_workers_busy = %d at the barrier, want 0", got)
	}
}

// A cancelled matrix records every unstarted trial as aborted and
// censored at its fixed entitlement.
func TestCancelledMatrixAbortsTrials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := campaign.RunMatrixContext(ctx, mustTools(t, "pos", "genmc"), miniPrograms(t, "CS/account"),
		campaign.Config{Trials: 2, Budget: 100, BaseSeed: 1})
	for tool, want := range map[string]int{"POS": 100, "GenMC*": 200} {
		for tr, o := range m.Outcomes[tool]["CS/account"] {
			if o.Err != "trial aborted after 0 schedules: context canceled" || o.Budget != want {
				t.Errorf("%s[%d] = %+v, want aborted and censored at %d", tool, tr, o, want)
			}
		}
	}
}
