package campaign

import (
	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
)

// Distribution is the Figure 5 data for one configuration: how often each
// distinct reads-from combination was exercised over a fixed number of
// schedules, in first-observation order.
type Distribution struct {
	Config string
	// Freq[i] is the observation count of the i-th combination.
	Freq []int
	// Schedules is the total executions performed.
	Schedules int
}

// Combinations returns the number of distinct combinations observed.
func (d *Distribution) Combinations() int { return len(d.Freq) }

// MaxShare returns the fraction of all executions spent in the single most
// frequent combination — the paper's ">50% in one sequence" headline for
// feedback-less exploration.
func (d *Distribution) MaxShare() float64 {
	if d.Schedules == 0 {
		return 0
	}
	max := 0
	for _, f := range d.Freq {
		if f > max {
			max = f
		}
	}
	return float64(max) / float64(d.Schedules)
}

// RFDistributionPOS measures the reads-from combination distribution of
// plain POS over n schedules (Figure 5, top).
func RFDistributionPOS(p bench.Program, n int, seed int64, maxSteps int) *Distribution {
	fb := core.NewFeedback()
	s := sched.NewPOS()
	// One intern table and recycler for the whole measurement: feedback
	// keys stay dense integers and trace arrays are reused run to run.
	intern := exec.NewInternTable()
	recycler := exec.NewRecycler()
	for i := 1; i <= n; i++ {
		res := exec.Run(p.Name, p.Body, exec.Config{
			Scheduler: s,
			Seed:      budget.EpochSeed(seed, i),
			MaxSteps:  maxSteps,
			Intern:    intern,
			Recycle:   recycler,
		})
		fb.Observe(res.Trace)
		recycler.Reclaim(res.Trace)
	}
	return &Distribution{Config: "POS", Freq: fb.SigFrequencies(), Schedules: n}
}

// RFDistributionRFF measures the distribution of the full fuzzer (Figure
// 5, bottom) or of its feedback-ablated variant (RQ3) over n schedules;
// bugs do not stop the campaign, matching the paper's 10000-schedule runs.
func RFDistributionRFF(p bench.Program, n int, seed int64, maxSteps int, feedback bool) *Distribution {
	rep := core.NewFuzzer(p.Name, p.Body, core.Options{
		Budget:          n,
		MaxSteps:        maxSteps,
		Seed:            seed,
		DisableFeedback: !feedback,
	}).Run()
	name := "RFF"
	if !feedback {
		name = "RFF w/o feedback"
	}
	return &Distribution{Config: name, Freq: rep.SigFrequencies, Schedules: rep.Executions}
}
