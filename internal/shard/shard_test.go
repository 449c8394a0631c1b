package shard_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

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
// to the counted executions, the merge histogram has one observation
// per epoch, and the aggregate campaign counters match the report.
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
	if got := snap.Value(telemetry.MSchedulesExecuted, prog); got != int64(rep.Executions) {
		t.Fatalf("schedules_executed = %d, want %d", got, rep.Executions)
	}
	// Budget 256 at K=64 with the geometric ramp (1,2,4,8,16,32,64,64,64,1)
	// merges ten times.
	hd := snap.Histogram(telemetry.MShardMergeNS, prog)
	if hd == nil || hd.Count != 10 {
		t.Fatalf("shard_merge_ns histogram = %+v, want 10 observations", hd)
	}
	if got := snap.Value(telemetry.MCorpusSize, prog); got != int64(rep.CorpusSize) {
		t.Fatalf("corpus_size gauge = %d, want %d", got, rep.CorpusSize)
	}
	// Batches run as fleet cells, but the pool's own series stay out of
	// a shard campaign's telemetry, and there are no steals to count.
	for _, m := range snap.Metrics {
		if m.Name == telemetry.MShardSteals || strings.HasPrefix(m.Name, "fleet_") {
			t.Errorf("unexpected series %s in a shard campaign", m.Name)
		}
	}
}

// TestContextCancelPrefix: cancelling mid-campaign yields a merged
// prefix — counted executions never exceed the merged epochs and the
// report stays internally consistent.
func TestContextCancelPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	opts := shard.Options{Budget: 100000, Seed: 1, Epoch: 64, Shards: 2}
	hub := telemetry.NewHub()
	opts.Telemetry = hub
	// Cancel from a telemetry hook after a few merges: EvEpochMerge is
	// emitted once per barrier on the coordinator.
	opts.FailureObserver = nil
	go func() {
		// No external hook into the loop; just cancel after a moment of
		// real work by polling the counter.
		for hub.Snapshot().Value(telemetry.MSchedulesExecuted, telemetry.L("program", "prog")) < 128 {
		}
		cancel()
	}()
	rep := shard.FuzzContext(ctx, "prog", bugFree(3), opts)
	n = rep.Executions
	if n == 0 || n >= 100000 {
		t.Fatalf("cancelled campaign counted %d executions", n)
	}
	if rep.CorpusSize == 0 || len(rep.SigFrequencies) != rep.UniqueSigs {
		t.Fatalf("cancelled report inconsistent: %+v", rep)
	}
}

// TestDeterministicWithChannelOps extends the shard-count contract to
// the channel vocabulary: a chan-grammar progen program (channels,
// selects, WaitGroup) merges to a bit-identical report at every shard
// count. Channel rendezvous matching and transfer-slot state must not
// leak any execution-order dependence into the epoch merge.
func TestDeterministicWithChannelOps(t *testing.T) {
	feats, err := progen.ParseGrammar("chan")
	if err != nil {
		t.Fatal(err)
	}
	// Scan the stream for a channel-heavy program that neither crashes
	// nor deadlocks on every schedule, so the campaign runs its budget.
	gen := progen.NewGenerator(11, progen.Options{Features: feats})
	var prog exec.Program
	var name string
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
		prog, name = p.Body(), p.Name
		break
	}
	if prog == nil {
		t.Fatal("no suitable channel-heavy program in the first 40 candidates")
	}
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

// TestBatchPanicReachesCaller: a panic inside a shard's batch surfaces
// on the caller's goroutine, with the batch's stack, where a recover can
// catch it — never as a truncated report that would read like a
// cancellation.
func TestBatchPanicReachesCaller(t *testing.T) {
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
		if !strings.Contains(msg, "sink exploded") || !strings.Contains(msg, "execOne") {
			t.Fatalf("shards=%d: recovered %v, want the batch's panic and stack", w, got)
		}
	}
}
