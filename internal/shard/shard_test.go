package shard_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/progen"
	"rff/internal/sched"
	"rff/internal/shard"
	"rff/internal/telemetry"
)

// reorder is the paper's Figure 1 program with n setter threads — buggy,
// with a bug hard enough that a small campaign exercises real corpus
// growth before finding it.
func reorder(n int) exec.Program {
	return func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		b := t.NewVar("b", 0)
		threads := make([]*exec.Thread, 0, n+1)
		for i := 0; i < n; i++ {
			threads = append(threads, t.Go("set", func(w *exec.Thread) {
				w.Write(a, 1)
				w.Write(b, -1)
			}))
		}
		threads = append(threads, t.Go("check", func(w *exec.Thread) {
			av := w.Read(a)
			bv := w.Read(b)
			w.Assert((av == 0 && bv == 0) || (av == 1 && bv == -1), "reorder")
		}))
		t.JoinAll(threads...)
	}
}

// bugFree is reorder without the failing assertion, so campaigns run
// their full budget.
func bugFree(n int) exec.Program {
	return func(t *exec.Thread) {
		a := t.NewVar("a", 0)
		b := t.NewVar("b", 0)
		threads := make([]*exec.Thread, 0, n+1)
		for i := 0; i < n; i++ {
			threads = append(threads, t.Go("set", func(w *exec.Thread) {
				w.Write(a, 1)
				w.Write(b, -1)
			}))
		}
		threads = append(threads, t.Go("check", func(w *exec.Thread) {
			w.Read(a)
			w.Read(b)
		}))
		t.JoinAll(threads...)
	}
}

func run(t *testing.T, prog exec.Program, opts shard.Options) *core.Report {
	t.Helper()
	return shard.Fuzz("prog", prog, opts)
}

// TestDeterministicAcrossShardCounts is the contract of the epoch
// barrier: at a fixed (seed, budget, epoch), the merged report is
// bit-identical whatever the shard count — and across reruns.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	base := shard.Options{Budget: 400, Seed: 42, Epoch: 64}
	want := run(t, bugFree(3), base)
	if want.Executions != 400 {
		t.Fatalf("baseline ran %d executions, want the full budget", want.Executions)
	}
	if want.CorpusSize < 2 || want.UniquePairs == 0 {
		t.Fatalf("baseline campaign learned nothing: %+v", want)
	}
	for _, w := range []int{1, 2, 4, 7} {
		opts := base
		opts.Shards = w
		got := run(t, bugFree(3), opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: report diverged\n got: %+v\nwant: %+v", w, got, want)
		}
	}
}

// TestDeterministicWithBug checks the deterministic stop-at-first-bug
// truncation: the first-bug schedule count, the deduplicated failure
// list, and the post-bug cutoff are identical at every shard count.
func TestDeterministicWithBug(t *testing.T) {
	base := shard.Options{Budget: 2000, Seed: 7, Epoch: 64, StopAtFirstBug: true}
	want := run(t, reorder(4), base)
	if want.FirstBug == 0 {
		t.Fatalf("baseline did not find the reorder bug in %d executions", want.Executions)
	}
	if want.Executions != want.FirstBug {
		t.Fatalf("stop-at-first-bug must cut the count at the bug: executions=%d first=%d",
			want.Executions, want.FirstBug)
	}
	if len(want.Failures) != 1 {
		t.Fatalf("failure dedup should leave one record, got %d", len(want.Failures))
	}
	for _, w := range []int{2, 4} {
		opts := base
		opts.Shards = w
		got := run(t, reorder(4), opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: bug report diverged\n got: %+v\nwant: %+v", w, got, want)
		}
	}
}

// TestFailureDedupWithoutStop lets the campaign keep running past
// failures: every failing execution still counts, but the Failures list
// holds one record per distinct failure signature.
func TestFailureDedupWithoutStop(t *testing.T) {
	rep := run(t, reorder(2), shard.Options{Budget: 300, Seed: 3, Epoch: 64, Shards: 2})
	if rep.FirstBug == 0 {
		t.Fatal("expected the reorder bug within 300 executions")
	}
	if rep.Executions != 300 {
		t.Fatalf("without StopAtFirstBug the campaign must run its budget, ran %d", rep.Executions)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("identical assertion failures must dedup to one record, got %d", len(rep.Failures))
	}
}

// TestFailureObserverDeterministic asserts that the merge barrier hands
// the observer the same failing executions, in the same order, at every
// shard count.
func TestFailureObserverDeterministic(t *testing.T) {
	type seen struct {
		Seed      int64
		Decisions []exec.ThreadID
		Msg       string
	}
	collect := func(w int) []seen {
		var out []seen
		opts := shard.Options{Budget: 300, Seed: 3, Epoch: 64, Shards: w}
		opts.FailureObserver = func(res *exec.Result) {
			if res.Program != "prog" || res.Failure == nil {
				t.Errorf("observer got malformed result: %+v", res)
			}
			out = append(out, seen{res.Seed, res.Trace.ThreadOrder(), res.Failure.Msg})
		}
		run(t, reorder(2), opts)
		return out
	}
	want := collect(1)
	if len(want) == 0 {
		t.Fatal("no failing executions observed")
	}
	for _, w := range []int{2, 4} {
		if got := collect(w); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: observer stream diverged (%d vs %d failures)", w, len(got), len(want))
		}
	}
}

// TestShardTelemetry checks the per-shard accounting: shard_execs sums
// to the counted executions and the merge histogram has one observation
// per epoch. The campaign counters both loops share are pinned by
// TestFoldTelemetryContract.
func TestShardTelemetry(t *testing.T) {
	hub := telemetry.NewHub()
	opts := shard.Options{Budget: 256, Seed: 9, Epoch: 64, Shards: 3, Telemetry: hub}
	rep := run(t, bugFree(3), opts)
	snap := hub.Snapshot()
	prog := telemetry.L("program", "prog")

	var shardSum int64
	for _, sh := range []string{"0", "1", "2"} {
		shardSum += snap.Value(telemetry.MShardExecs, prog, telemetry.L("shard", sh))
	}
	if shardSum != int64(rep.Executions) {
		t.Fatalf("shard_execs sums to %d, want %d", shardSum, rep.Executions)
	}
	// Budget 256 at K=64 with the geometric ramp (1,2,4,8,16,32,64,64,64,1)
	// merges ten times.
	hd := snap.Histogram(telemetry.MShardMergeNS, prog)
	if hd == nil || hd.Count != 10 {
		t.Fatalf("shard_merge_ns histogram = %+v, want 10 observations", hd)
	}
	// Batches run as fleet cells, but the pool's own series stay out of
	// a shard campaign's telemetry, and there are no steals to count.
	for _, m := range snap.Metrics {
		if m.Name == telemetry.MShardSteals || strings.HasPrefix(m.Name, "fleet_") {
			t.Errorf("unexpected series %s in a shard campaign", m.Name)
		}
	}
}

// cancelSink cancels the campaign once the barrier has merged its
// after-th epoch.
type cancelSink struct {
	after  int
	merges int
	cancel context.CancelFunc
}

func (s *cancelSink) Emit(kind string, _ telemetry.Fields) {
	if kind == telemetry.EvEpochMerge {
		if s.merges++; s.merges == s.after {
			s.cancel()
		}
	}
}
func (*cancelSink) Add(string, int64, ...telemetry.Label)     {}
func (*cancelSink) Set(string, int64, ...telemetry.Label)     {}
func (*cancelSink) Observe(string, int64, ...telemetry.Label) {}

// TestContextCancelPrefix pins FuzzContext's cancellation promise, as
// core's TestCancelReportIsPrefix does for the sequential loop: a
// campaign cancelled right after its j-th merge reports exactly what a
// campaign whose budget is the merged executions reports, at every
// shard count.
func TestContextCancelPrefix(t *testing.T) {
	twostage, ok := bench.Get("CS/twostage_20")
	if !ok {
		t.Fatal("CS/twostage_20 is not registered")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, j := range []int{1, 3, 6, 9} {
			ctx, cancel := context.WithCancel(context.Background())
			opts := shard.Options{Budget: 100000, Seed: 3, Epoch: 64, Shards: shards,
				Telemetry: &cancelSink{after: j, cancel: cancel}}
			got := shard.FuzzContext(ctx, "prog", twostage.Body, opts)
			cancel()
			merged := 0 // epochs ramp 1, 2, 4, ... up to 64
			for e := 0; e < j; e++ {
				merged += min(1<<e, opts.Epoch)
			}
			if got.Executions != merged {
				t.Fatalf("shards=%d j=%d: cancelled campaign counted %d executions, want the %d merged", shards, j, got.Executions, merged)
			}
			opts.Budget, opts.Telemetry = got.Executions, nil
			if want := shard.Fuzz("prog", twostage.Body, opts); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d j=%d: cancelled report\n  %+v\nwant budget-%d report\n  %+v",
					shards, j, got, got.Executions, want)
			}
		}
	}
}

// TestDeterministicWithChannelOps extends the shard-count contract to
// the channel vocabulary: a chan-grammar progen program (channels,
// selects, WaitGroup) merges to a bit-identical report at every shard
// count. Channel rendezvous matching and transfer-slot state must not
// leak any execution-order dependence into the epoch merge.
func TestDeterministicWithChannelOps(t *testing.T) {
	name, prog := chanProgram(t)
	base := shard.Options{Budget: 300, Seed: 42, Epoch: 32}
	want := shard.Fuzz(name, prog, base)
	if want.Executions == 0 {
		t.Fatal("baseline ran nothing")
	}
	for _, w := range []int{1, 2, 4} {
		opts := base
		opts.Shards = w
		got := shard.Fuzz(name, prog, opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: channel-program report diverged\n got: %+v\nwant: %+v", w, got, want)
		}
	}
}

// panicSink panics on the engine's per-execution counter, which exec.Run
// bumps on whichever fleet worker runs a planned execution.
type panicSink struct{}

func (panicSink) Add(name string, _ int64, _ ...telemetry.Label) {
	if name == telemetry.MEngineExecutions {
		panic("sink exploded")
	}
}
func (panicSink) Set(string, int64, ...telemetry.Label)     {}
func (panicSink) Observe(string, int64, ...telemetry.Label) {}
func (panicSink) Emit(string, telemetry.Fields)             {}

// TestShardPanicReachesCaller: a panic inside a shard's claim loop
// surfaces on the caller's goroutine, with the shard's stack, where a
// recover can catch it — never as a truncated report that would read
// like a cancellation.
func TestShardPanicReachesCaller(t *testing.T) {
	for _, w := range []int{1, 2} {
		var rep *core.Report
		got := func() (v any) {
			defer func() { v = recover() }()
			rep = run(t, bugFree(3), shard.Options{Budget: 64, Seed: 1, Shards: w, Telemetry: panicSink{}})
			return nil
		}()
		if rep != nil {
			t.Fatalf("shards=%d: panicking campaign returned a report: %+v", w, rep)
		}
		msg, _ := got.(string)
		if !strings.Contains(msg, "sink exploded") || !strings.Contains(msg, "execOne") ||
			!strings.Contains(msg, "shard: shard ") {
			t.Fatalf("shards=%d: recovered %v, want the shard's panic and stack", w, got)
		}
	}
}

// rendezvousSink makes the engine's per-execution counter a meeting
// point: an execution that reports waits, up to a bound, for a second
// one to report while it is still in flight. It records whether two
// executions ever met, and gives up waiting after the first missed
// meeting so a serial campaign fails fast instead of stalling. The
// campaign's first epoch holds a single execution, so the first report
// passes without waiting.
type rendezvousSink struct {
	mu      sync.Mutex
	reports int
	waiting chan struct{} // non-nil while an execution waits
	met     bool
	gaveUp  bool
}

func (s *rendezvousSink) Add(name string, _ int64, _ ...telemetry.Label) {
	if name != telemetry.MEngineExecutions {
		return
	}
	s.mu.Lock()
	s.reports++
	if s.reports == 1 || s.met || s.gaveUp {
		s.mu.Unlock()
		return
	}
	if s.waiting != nil {
		close(s.waiting)
		s.waiting, s.met = nil, true
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	s.waiting = ch
	s.mu.Unlock()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		s.mu.Lock()
		if s.waiting == ch {
			s.waiting, s.gaveUp = nil, true
		}
		s.mu.Unlock()
	}
}
func (*rendezvousSink) Set(string, int64, ...telemetry.Label)     {}
func (*rendezvousSink) Observe(string, int64, ...telemetry.Label) {}
func (*rendezvousSink) Emit(string, telemetry.Fields)             {}

// TestShortCampaignRunsShardsConcurrently: a 24-execution campaign ramps
// through epochs of 1, 2, 4, 8 and 9 executions, and every epoch of two
// or more must keep both shards busy — an execution that blocks waits
// for the other shard to claim the next slot, never for the barrier.
func TestShortCampaignRunsShardsConcurrently(t *testing.T) {
	sink := &rendezvousSink{}
	rep := run(t, bugFree(3), shard.Options{Budget: 24, Seed: 1, Shards: 2, Telemetry: sink})
	if rep.Executions != 24 {
		t.Fatalf("campaign ran %d executions, want 24", rep.Executions)
	}
	if !sink.met {
		t.Fatal("no two executions of a 2-shard campaign were ever in flight at once")
	}
}

// chanProgram returns a channel-heavy chan-grammar progen program that
// neither crashes nor deadlocks on a random schedule, so a campaign on
// it runs its budget.
func chanProgram(t *testing.T) (string, exec.Program) {
	t.Helper()
	feats, err := progen.ParseGrammar("chan")
	if err != nil {
		t.Fatal(err)
	}
	gen := progen.NewGenerator(11, progen.Options{Features: feats})
	for i := 0; i < 40; i++ {
		p := gen.Next()
		chanOps := strings.Count(p.Source(), "ch0") + strings.Count(p.Source(), "ch1")
		if chanOps < 2 {
			continue
		}
		res := exec.Run(p.Name, p.Body(), exec.Config{Scheduler: sched.NewRandom(), Seed: 1})
		if res.Buggy() {
			continue
		}
		return p.Name, p.Body()
	}
	t.Fatal("no suitable channel-heavy program in the first 40 candidates")
	return "", nil
}

// TestPooledShardStateIsolated: shard state outlives its campaign, so
// concurrent campaigns on different programs draw from one pool, and a
// campaign that panicked must leave nothing behind that a later one
// could inherit. Every report must equal its campaign's solo run.
func TestPooledShardStateIsolated(t *testing.T) {
	chanName, chanProg := chanProgram(t)
	type campaign struct {
		name string
		prog exec.Program
		opts shard.Options
	}
	campaigns := []campaign{
		{"prog", bugFree(3), shard.Options{Budget: 200, Seed: 42, Epoch: 32, Shards: 2}},
		{chanName, chanProg, shard.Options{Budget: 150, Seed: 7, Epoch: 16, Shards: 3}},
		{"prog", bugFree(3), shard.Options{Budget: 24, Seed: 5, Shards: 2}},
		{chanName, chanProg, shard.Options{Budget: 24, Seed: 9, Shards: 4}},
	}
	want := make([]*core.Report, len(campaigns))
	for i, c := range campaigns {
		want[i] = shard.Fuzz(c.name, c.prog, c.opts)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*len(campaigns))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range campaigns {
				k := (i + g) % len(campaigns)
				c := campaigns[k]
				if got := shard.Fuzz(c.name, c.prog, c.opts); !reflect.DeepEqual(got, want[k]) {
					errs <- fmt.Sprintf("goroutine %d, campaign %d: report diverged from its solo run", g, k)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	func() {
		defer func() { recover() }()
		run(t, bugFree(3), shard.Options{Budget: 64, Seed: 1, Shards: 2, Telemetry: panicSink{}})
	}()
	for i, c := range campaigns {
		if got := shard.Fuzz(c.name, c.prog, c.opts); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("campaign %d after a panicked campaign: report diverged from its reference", i)
		}
	}
}
