// Performance microbenchmarks for the execute→observe hot loop — the
// quantities that determine how many schedules a wall-clock budget buys.
// Unlike bench_test.go (which regenerates the paper's evaluation figures),
// these benches track the repo's own performance trajectory: run with
//
//	go test -bench='Perf' -benchmem
//
// and compare allocs/op and ns/op across PRs. The rffperf module measures
// the whole loop outside the testing framework, end to end and per layer.
package repro

import (
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
)

// perfPrograms is the workload mix used by the perf benchmarks: a small
// data-race subject, a lock-heavy mid-size subject, the headline
// SafeStack subject with long traces, and a 101-thread subject whose
// per-step cost must not grow with the thread count.
var perfPrograms = []string{"CS/reorder_10", "CS/twostage_20", "SafeStack", "CS/reorder_100"}

// BenchmarkPerfExecuteObserve measures the full fuzzing inner loop —
// mutate, execute under the proactive scheduler, observe feedback, extend
// the pool — per schedule. This is the paper's schedules-per-second
// number; allocs/op is the headline regression metric.
func BenchmarkPerfExecuteObserve(b *testing.B) {
	for _, name := range perfPrograms {
		p := bench.MustGet(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			f := core.NewFuzzer(p.Name, p.Body, core.Options{
				Budget:   b.N,
				MaxSteps: 5000,
				Seed:     1,
			})
			b.ResetTimer()
			rep := f.Run()
			if rep.Executions != b.N {
				b.Fatalf("ran %d schedules, want %d", rep.Executions, b.N)
			}
		})
	}
}

// BenchmarkPerfEngineOnly measures the raw engine (no fuzzing loop): one
// controlled execution under POS per iteration — the floor the fuzzer's
// overhead sits on.
func BenchmarkPerfEngineOnly(b *testing.B) {
	for _, name := range perfPrograms {
		p := bench.MustGet(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := sched.NewPOS()
			cfg := exec.Config{Scheduler: s, MaxSteps: 5000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				res := exec.Run(p.Name, p.Body, cfg)
				if res.Trace.Len() == 0 {
					b.Fatal("empty trace")
				}
			}
		})
	}
}

// BenchmarkPerfTraceFeedback measures the per-trace feedback derivation
// (reads-from pairs + signature + abstract events) as consumed by
// Feedback.Observe and EventPool.AddTrace — the cost of "observe" alone,
// on a fresh trace each iteration.
func BenchmarkPerfTraceFeedback(b *testing.B) {
	for _, name := range perfPrograms {
		p := bench.MustGet(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			fb := core.NewFeedback()
			pool := core.NewEventPool()
			s := sched.NewPOS()
			cfg := exec.Config{Scheduler: s, MaxSteps: 5000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg.Seed = int64(i)
				res := exec.Run(p.Name, p.Body, cfg)
				b.StartTimer()
				fb.Observe(res.Trace)
				pool.AddTrace(res.Trace)
			}
		})
	}
}
