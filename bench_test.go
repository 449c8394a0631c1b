// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation as testing.B benchmarks. Each benchmark
// reports, besides ns/op, the evaluation metrics as custom units:
//
//	BenchmarkTableB/*        — Appendix B: schedules-to-first-bug per
//	                           (tool, program) cell
//	BenchmarkFig4/*          — Figure 4: cumulative bugs per tool over a
//	                           mini-matrix (bugs and mean schedules)
//	BenchmarkFig5/*          — Figure 5: reads-from combination evenness
//	                           on SafeStack (distinct combos, max share)
//	BenchmarkRQ2_Ablation    — RQ2: RFF vs POS significant-win counts
//	BenchmarkRQ4_QLearning   — RQ4: RFF vs Q-Learning-RF bug counts
//	BenchmarkE8_RFClasses    — §3: schedules vs reads-from classes
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-scale reproduction (paper-sized budgets) lives in cmd/rffbench;
// these benches use reduced budgets so the whole suite completes in
// minutes. See EXPERIMENTS.md for recorded full-scale results.
package repro

import (
	"context"
	"fmt"
	"testing"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/minimize"
	"rff/internal/race"
	"rff/internal/sched"
	"rff/internal/stats"
	"rff/internal/strategy"
	"rff/internal/systematic"
)

// mustTools resolves strategy specs into the benchmark tool lineups.
func mustTools(specs ...string) []campaign.Tool {
	tools, err := strategy.ResolveAll(specs, strategy.Config{})
	if err != nil {
		panic(err)
	}
	return tools
}

// tableBCells is a representative slice of the Appendix B matrix: one
// program per suite plus the headline subjects.
var tableBCells = []string{
	"CS/reorder_100",
	"CS/twostage_50",
	"CS/account",
	"Chess/WorkStealQueue",
	"ConVul-CVE-Benchmarks/CVE-2016-9806",
	"Inspect_benchmarks/boundedBuffer",
	"CB/pbzip2-0.9.4",
	"Splash2/fft",
	"RADBench/bug6",
}

var tableBTools = mustTools("rff", "pos", "pct:3", "period", "qlearn")

// BenchmarkTableB regenerates Appendix B cells: one sub-benchmark per
// (tool, program), reporting mean schedules-to-bug and the find rate.
func BenchmarkTableB(b *testing.B) {
	const budget = 1500
	for _, tool := range tableBTools {
		for _, name := range tableBCells {
			p := bench.MustGet(name)
			b.Run(tool.Name()+"/"+p.Name, func(b *testing.B) {
				var schedules []float64
				found := 0
				for i := 0; i < b.N; i++ {
					out := tool.Run(context.Background(), p, budget, 5000, int64(i)+1)
					if out.Found() {
						found++
						schedules = append(schedules, float64(out.FirstBug))
					}
				}
				if len(schedules) > 0 {
					b.ReportMetric(stats.Mean(schedules), "schedules-to-bug")
				}
				b.ReportMetric(float64(found)/float64(b.N), "find-rate")
			})
		}
	}
}

// BenchmarkFig4 runs a mini evaluation matrix per tool and reports the
// cumulative-bugs statistics behind the Figure 4 curves.
func BenchmarkFig4(b *testing.B) {
	programs := []bench.Program{
		bench.MustGet("CS/reorder_20"),
		bench.MustGet("CS/twostage_20"),
		bench.MustGet("CS/account"),
		bench.MustGet("CS/bluetooth_driver"),
		bench.MustGet("ConVul-CVE-Benchmarks/CVE-2015-7550"),
		bench.MustGet("Chess/InterlockedWorkStealQueue"),
	}
	for _, tool := range tableBTools {
		tool := tool
		b.Run(tool.Name(), func(b *testing.B) {
			totalBugs, totalSched := 0.0, 0.0
			for i := 0; i < b.N; i++ {
				m := campaign.RunMatrix([]campaign.Tool{tool}, programs, campaign.Config{
					Trials: 2, Budget: 600, MaxSteps: 5000, BaseSeed: int64(i) + 1,
				})
				curve := m.CumulativeCurve(tool.Name())
				if len(curve) > 0 {
					totalBugs += float64(curve[len(curve)-1].Bugs)
					totalSched += float64(curve[len(curve)-1].Schedules)
				}
			}
			b.ReportMetric(totalBugs/float64(b.N), "bugs-found")
			b.ReportMetric(totalSched/float64(b.N), "last-bug-at-schedule")
		})
	}
}

// BenchmarkFig5 regenerates the Figure 5 evenness measurement on
// SafeStack for POS, feedback-less RFF, and full RFF.
func BenchmarkFig5(b *testing.B) {
	p := bench.MustGet("SafeStack")
	const n = 1500
	b.Run("POS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := campaign.RFDistributionPOS(p, n, int64(i)+1, 5000)
			b.ReportMetric(float64(d.Combinations()), "rf-combinations")
			b.ReportMetric(d.MaxShare()*100, "max-share-%")
		}
	})
	b.Run("RFF-nofeedback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := campaign.RFDistributionRFF(p, n, int64(i)+1, 5000, false)
			b.ReportMetric(float64(d.Combinations()), "rf-combinations")
			b.ReportMetric(d.MaxShare()*100, "max-share-%")
		}
	})
	b.Run("RFF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := campaign.RFDistributionRFF(p, n, int64(i)+1, 5000, true)
			b.ReportMetric(float64(d.Combinations()), "rf-combinations")
			b.ReportMetric(d.MaxShare()*100, "max-share-%")
		}
	})
}

// BenchmarkRQ2_Ablation measures the abstract-schedule contribution: RFF
// vs its own POS fallback on the programs where the structure matters.
func BenchmarkRQ2_Ablation(b *testing.B) {
	programs := []bench.Program{
		bench.MustGet("CS/reorder_10"),
		bench.MustGet("CS/reorder_50"),
		bench.MustGet("CS/twostage_20"),
		bench.MustGet("CS/wronglock"),
	}
	for i := 0; i < b.N; i++ {
		m := campaign.RunMatrix(
			mustTools("rff", "pos"),
			programs,
			campaign.Config{Trials: 3, Budget: 800, MaxSteps: 5000, BaseSeed: int64(i) + 1},
		)
		rffWins, posWins := m.SignificantWins("RFF", "POS", 0.05)
		b.ReportMetric(float64(rffWins), "rff-sig-wins")
		b.ReportMetric(float64(posWins), "pos-sig-wins")
		b.ReportMetric(stats.Mean(m.BugsFoundPerTrial("RFF")), "rff-bugs")
		b.ReportMetric(stats.Mean(m.BugsFoundPerTrial("POS")), "pos-bugs")
	}
}

// BenchmarkRQ4_QLearning compares the fuzzing loop against the Q-Learning
// framework over the same reads-from information.
func BenchmarkRQ4_QLearning(b *testing.B) {
	programs := []bench.Program{
		bench.MustGet("CS/reorder_10"),
		bench.MustGet("CS/twostage"),
		bench.MustGet("CS/queue"),
		bench.MustGet("ConVul-CVE-Benchmarks/CVE-2013-1792"),
	}
	for i := 0; i < b.N; i++ {
		m := campaign.RunMatrix(
			mustTools("rff", "qlearn"),
			programs,
			campaign.Config{Trials: 3, Budget: 800, MaxSteps: 5000, BaseSeed: int64(i) + 1},
		)
		b.ReportMetric(stats.Mean(m.BugsFoundPerTrial("RFF")), "rff-bugs")
		b.ReportMetric(stats.Mean(m.BugsFoundPerTrial("QLearning-RF")), "qlearn-bugs")
	}
}

// BenchmarkE8_RFClasses regenerates the Section 3 reduction claim: the
// number of reads-from classes is exponentially smaller than the number
// of schedules.
func BenchmarkE8_RFClasses(b *testing.B) {
	reorder2 := bench.MustGet("CS/reorder_3")
	for i := 0; i < b.N; i++ {
		rep := systematic.Explore(reorder2.Name, reorder2.Body, systematic.ExploreOptions{
			MaxExecutions: 20000,
		})
		b.ReportMetric(float64(rep.Executions), "schedules")
		b.ReportMetric(float64(rep.Classes), "rf-classes")
	}
}

// BenchmarkEngineThroughput measures raw engine speed: schedules/sec on a
// mid-size program, the quantity that determines how far a wall-clock
// budget goes.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, name := range []string{"CS/account", "CS/reorder_10", "CS/reorder_100", "SafeStack"} {
		p := bench.MustGet(name)
		b.Run(name, func(b *testing.B) {
			tool := strategy.MustResolve("pos", strategy.Config{})
			for i := 0; i < b.N; i++ {
				tool.Run(context.Background(), p, 1, 5000, int64(i))
			}
		})
	}
}

// BenchmarkProactiveOverhead compares the proactive scheduler against
// plain POS on the same program — the cost of constraint machines.
func BenchmarkProactiveOverhead(b *testing.B) {
	p := bench.MustGet("CS/reorder_10")
	b.Run("POS", func(b *testing.B) {
		tool := strategy.MustResolve("pos", strategy.Config{})
		for i := 0; i < b.N; i++ {
			tool.Run(context.Background(), p, 1, 5000, int64(i))
		}
	})
	b.Run("RFF", func(b *testing.B) {
		tool := campaign.RFFTool{}
		for i := 0; i < b.N; i++ {
			tool.Run(context.Background(), p, 1, 5000, int64(i))
		}
	})
}

// Example of scaling: ensure the headline subjects stay cheap enough for
// CI-style runs.
func BenchmarkReorderFamily(b *testing.B) {
	for _, n := range []int{3, 10, 50, 100} {
		name := fmt.Sprintf("CS/reorder_%d", n)
		p := bench.MustGet(name)
		b.Run(name, func(b *testing.B) {
			var found, sched float64
			for i := 0; i < b.N; i++ {
				out := campaign.RFFTool{}.Run(context.Background(), p, 500, 5000, int64(i)+1)
				if out.Found() {
					found++
					sched += float64(out.FirstBug)
				}
			}
			if found > 0 {
				b.ReportMetric(sched/found, "schedules-to-bug")
			}
			b.ReportMetric(found/float64(b.N), "find-rate")
		})
	}
}

// BenchmarkRaceDetector measures the happens-before analysis cost per
// trace on a mid-size subject.
func BenchmarkRaceDetector(b *testing.B) {
	p := bench.MustGet("CS/twostage_20")
	res := exec.Run(p.Name, p.Body, exec.Config{Scheduler: sched.NewPOS(), Seed: 7})
	b.ResetTimer()
	races := 0
	for i := 0; i < b.N; i++ {
		races = len(race.Detect(res.Trace))
	}
	b.ReportMetric(float64(races), "races")
	b.ReportMetric(float64(res.Trace.Len()), "events")
}

// BenchmarkMinimize measures schedule minimization end to end on the
// reorder_10 failure.
func BenchmarkMinimize(b *testing.B) {
	p := bench.MustGet("CS/reorder_10")
	rep := core.NewFuzzer(p.Name, p.Body, core.Options{
		Budget: 1000, Seed: 13, StopAtFirstBug: true,
	}).Run()
	if !rep.FoundBug() {
		b.Fatal("no failure to minimize")
	}
	fr := rep.Failures[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := minimize.Minimize(p.Name, p.Body, fr.Decisions, fr.Failure, minimize.Options{})
		if res == nil {
			b.Fatal("minimization lost the failure")
		}
		b.ReportMetric(float64(res.MinimalSwitches), "switches")
		b.ReportMetric(float64(res.Probes), "probes")
	}
}
