package shard_test

import (
	"fmt"
	"sync"
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/shard"
	"rff/internal/telemetry"
)

// eventCountingHub is a telemetry hub that also counts emitted events by
// kind. The sharded loop calls the sink from every shard.
type eventCountingHub struct {
	*telemetry.Hub
	mu     sync.Mutex
	events map[string]int
}

func (h *eventCountingHub) Emit(kind string, _ telemetry.Fields) {
	h.mu.Lock()
	h.events[kind]++
	h.mu.Unlock()
}

// runFoldLoop runs one campaign through the sequential loop (shards 0)
// or the sharded loop at that shard count, with a fresh counting hub.
func runFoldLoop(prog exec.Program, opts core.Options, shards int) (*core.Report, telemetry.Snapshot, map[string]int) {
	hub := &eventCountingHub{Hub: telemetry.NewHub(), events: map[string]int{}}
	var rep *core.Report
	if shards == 0 {
		opts.Telemetry = hub
		rep = core.NewFuzzer("prog", prog, opts).Run()
	} else {
		rep = shard.Fuzz("prog", prog, shard.Options{
			Budget: opts.Budget, MaxSteps: opts.MaxSteps, Seed: opts.Seed,
			StopAtFirstBug: opts.StopAtFirstBug, Shards: shards, Telemetry: hub,
		})
	}
	return rep, hub.Snapshot(), hub.events
}

// TestFoldTelemetryContract pins the campaign counters both loops emit
// through core.Campaign's fold, on a buggy stop-at-first-bug campaign, a
// buggy campaign that keeps crashing past its first bug, and a bug-free
// one: each counter agrees with the report, a campaign emits one
// first-bug event however often it crashes, and the
// constraint totals cover the counted executions only — so they equal
// those of a rerun whose budget is the counted executions. Under shards
// the barrier discards the executions planned after the first bug; at
// two shards on CS/twostage_20, seed 2, those discarded executions used
// to add three satisfied constraints to the count.
func TestFoldTelemetryContract(t *testing.T) {
	twostage, ok := bench.Get("CS/twostage_20")
	if !ok {
		t.Fatal("CS/twostage_20 is not registered")
	}
	programs := []struct {
		name  string
		prog  exec.Program
		opts  core.Options
		buggy bool
	}{
		{"twostage_20", twostage.Body, core.Options{Budget: 2000, MaxSteps: 5000, Seed: 2, StopAtFirstBug: true}, true},
		{"reorder(5)", reorder(5), core.Options{Budget: 60, Seed: 11}, true},
		{"bugFree(3)", bugFree(3), core.Options{Budget: 200, Seed: 9}, false},
	}
	prog := telemetry.L("program", "prog")
	for _, p := range programs {
		for _, shards := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", p.name, shards), func(t *testing.T) {
				rep, snap, events := runFoldLoop(p.prog, p.opts, shards)
				if rep.FoundBug() != p.buggy {
					t.Fatalf("FirstBug = %d after %d executions, want a bug: %v", rep.FirstBug, rep.Executions, p.buggy)
				}
				for _, c := range []struct {
					metric string
					got    int64
					want   int
				}{
					{telemetry.MSchedulesExecuted, snap.Value(telemetry.MSchedulesExecuted, prog), rep.Executions},
					{telemetry.MRFPairsNew, snap.Value(telemetry.MRFPairsNew, prog), rep.UniquePairs},
					{telemetry.MRFCombosNew, snap.Value(telemetry.MRFCombosNew, prog), rep.UniqueSigs},
					{telemetry.MCorpusAdds, snap.Value(telemetry.MCorpusAdds, prog), rep.CorpusSize - 1},
					{telemetry.MCorpusSize + " gauge", snap.Value(telemetry.MCorpusSize, prog), rep.CorpusSize},
				} {
					if c.got != int64(c.want) {
						t.Errorf("%s = %d, want %d", c.metric, c.got, c.want)
					}
				}
				wantFirstBug := 0
				if rep.FirstBug > 0 {
					wantFirstBug = 1
				}
				crashed := snap.Value(telemetry.MSchedulesCrashed, prog)
				if p.buggy && !p.opts.StopAtFirstBug && crashed < 2 {
					t.Fatalf("schedules_crashed = %d, want a campaign that crashes more than once", crashed)
				}
				if got := events[telemetry.EvFirstBug]; got != wantFirstBug {
					t.Errorf("%d first-bug events, want %d (FirstBug %d)", got, wantFirstBug, rep.FirstBug)
				}

				opts := p.opts
				opts.Budget = rep.Executions
				_, prefix, _ := runFoldLoop(p.prog, opts, shards)
				for _, m := range []string{telemetry.MConstraintSatisfied, telemetry.MConstraintRejected} {
					if got, want := snap.Value(m, prog), prefix.Value(m, prog); got != want {
						t.Errorf("%s = %d, want %d as at budget %d", m, got, want, rep.Executions)
					}
				}
			})
		}
	}
}
