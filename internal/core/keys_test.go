package core_test

// Event keys (exec.EventKey) are handed out in first-sight order from
// process-wide tables, an order that is racy across concurrently running
// campaigns. The proactive scheduler may use them only for equality:
// these tests check that no campaign result depends on which keys its
// events got, and that the scheduler's hot path allocates nothing.

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
)

// keyedReorder is a reorder program whose object names and explicit
// locations all carry prefix, so a fresh prefix gets fresh keys.
func keyedReorder(prefix string, n int) exec.Program {
	setA, setB := exec.SiteAt(prefix+":set.a"), exec.SiteAt(prefix+":set.b")
	checkA, checkB := exec.SiteAt(prefix+":check.a"), exec.SiteAt(prefix+":check.b")
	assert := exec.SiteAt(prefix + ":assert")
	return func(t *exec.Thread) {
		a := t.NewVar(prefix+"a", 0)
		b := t.NewVar(prefix+"b", 0)
		threads := make([]*exec.Thread, 0, n+1)
		for i := 0; i < n; i++ {
			threads = append(threads, t.Go("set", func(w *exec.Thread) {
				w.WriteAt(setA, a, 1)
				w.WriteAt(setB, b, -1)
			}))
		}
		threads = append(threads, t.Go("check", func(w *exec.Thread) {
			av := w.ReadAt(checkA, a)
			bv := w.ReadAt(checkB, b)
			w.AssertAt(assert, (av == 0 && bv == 0) || (av == 1 && bv == -1), "reorder")
		}))
		t.JoinAll(threads...)
	}
}

// reportBytes renders everything a campaign reports, including the
// failing schedules (which JSON alone renders as {}).
func reportBytes(t *testing.T, rep *core.Report) string {
	t.Helper()
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.Write(js)
	for _, f := range rep.Failures {
		fmt.Fprintf(&b, "\n%s", f.Schedule)
	}
	return b.String()
}

func runKeyed(t *testing.T, prefix string, seed int64) string {
	rep := core.NewFuzzer("keyed", keyedReorder(prefix, 6), core.Options{Budget: 150, Seed: seed}).Run()
	if rep.Executions != 150 || rep.CorpusSize < 2 {
		t.Fatalf("degenerate campaign: %d executions, corpus %d", rep.Executions, rep.CorpusSize)
	}
	return reportBytes(t, rep)
}

// internJunk enters n never-seen object names and locations into the
// key tables.
func internJunk(t *testing.T, tag string, n int) {
	res := exec.Run("junk", func(th *exec.Thread) {
		for i := 0; i < n; i++ {
			th.NewVar(fmt.Sprintf("%s-var-%d", tag, i), 0)
			th.YieldAt(exec.SiteAt(fmt.Sprintf("%s.go:%d", tag, i)))
		}
	}, exec.Config{Scheduler: core.NewProactive(), Seed: 1})
	if res.Failure != nil || res.Truncated {
		t.Fatalf("junk run failed: %v (truncated %t)", res.Failure, res.Truncated)
	}
}

func TestReportIndependentOfKeyOrder(t *testing.T) {
	const seed = 3
	first := runKeyed(t, "ko1", seed)
	internJunk(t, "ko-junk", 1000)
	if again := runKeyed(t, "ko1", seed); again != first {
		t.Errorf("rerun after interning junk differs:\n got  %s\n want %s", again, first)
	}
	// A fresh prefix gets its keys after the junk: different numbers, in
	// a different order relative to everything else in the tables. Up to
	// the renaming the campaign must not notice.
	renamed := strings.ReplaceAll(runKeyed(t, "ko2", seed), "ko2", "ko1")
	if renamed != first {
		t.Errorf("campaign on freshly keyed names differs:\n got  %s\n want %s", renamed, first)
	}
}

// TestConcurrentCampaignsMatchSequential runs campaigns concurrently on
// names nobody has keyed yet, so their first sightings race; each report
// must equal the same campaign's sequential rerun. Run it under -race.
func TestConcurrentCampaignsMatchSequential(t *testing.T) {
	prefixes := []string{"cc1", "cc2", "cc3", "cc4"}
	concurrent := make([]string, len(prefixes))
	var wg sync.WaitGroup
	for i, p := range prefixes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = runKeyed(t, p, int64(i+1))
		}()
	}
	wg.Wait()
	for i, p := range prefixes {
		if seq := runKeyed(t, p, int64(i+1)); seq != concurrent[i] {
			t.Errorf("campaign %s: concurrent report differs from sequential:\n got  %s\n want %s",
				p, concurrent[i], seq)
		}
	}
}

// pickProbe feeds a Proactive scheduler an execution while choosing
// itself: every spawned thread first runs to its first shared access,
// otherwise the lowest thread runs. At the first step with at least want
// enabled events it measures the allocations of a warm Proactive.Pick.
type pickProbe struct {
	*core.Proactive
	want     int
	measured bool
	enabled  int
	allocs   float64
}

func (p *pickProbe) Pick(v *exec.View) int {
	if !p.measured && len(v.Enabled) >= p.want {
		p.measured, p.enabled = true, len(v.Enabled)
		p.Proactive.Pick(v) // size the scratch, draw every POS score
		p.allocs = testing.AllocsPerRun(100, func() { p.Proactive.Pick(v) })
	}
	for i := range v.Enabled {
		if v.Enabled[i].Op == exec.OpBegin {
			return i
		}
	}
	return 0
}

// wideProgram spawns 100 workers over 8 variables. Under pickProbe's
// order, main's yield and the 100 workers' first writes end up enabled
// together.
func wideProgram(t *exec.Thread) {
	vars := t.NewVars("w", 8, 0)
	workers := make([]*exec.Thread, 100)
	for i := range workers {
		x, y := vars[i%8], vars[(i+1)%8]
		workers[i] = t.Go("worker", func(w *exec.Thread) {
			w.Write(x, 1)
			w.Read(y)
		})
	}
	t.Yield()
	t.JoinAll(workers...)
}

func TestProactivePickAllocatesNothing(t *testing.T) {
	// Constraints over the program's own reads-from pairs keep the
	// machines voting.
	res := exec.Run("wide", wideProgram, exec.Config{Scheduler: core.NewProactive(), Seed: 1})
	var cs []core.Constraint
	for _, pr := range res.Trace.RFPairs() {
		if len(cs) < 8 {
			cs = append(cs, core.Constraint{Write: pr.Write, Read: pr.Read, Negated: len(cs)%3 == 2})
		}
	}
	if len(cs) != 8 {
		t.Fatalf("program has %d reads-from pairs, want at least 8", len(cs))
	}
	probe := &pickProbe{Proactive: core.NewProactive(), want: 101}
	probe.SetSchedule(core.NewSchedule(cs...))
	exec.Run("wide", wideProgram, exec.Config{Scheduler: probe, Seed: 1})
	if !probe.measured {
		t.Fatal("no step had 101 enabled events")
	}
	if probe.allocs != 0 {
		t.Errorf("warm Pick over %d enabled events and %d machines allocated %.1f objects, want 0",
			probe.enabled, len(cs), probe.allocs)
	}
}
