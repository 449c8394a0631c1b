// Package schedeval is the statistical harness that decides whether
// adaptive budget scheduling (internal/budget) actually pays off: it
// runs a seeded progen workload — N programs x every strategy spec x S
// seeds — once under the uniform baseline policy and once under each
// adaptive policy, records the time-to-first-bug and the ground-truth
// coverage-at-checkpoint distributions, and compares each adaptive
// policy against uniform with the Mann-Whitney U test.
//
// The verdict the harness asserts is deliberately one-sided: an
// adaptive policy must never be SIGNIFICANTLY WORSE than uniform on
// final coverage (p < alpha with uniform's median higher fails the
// run). Optionally (AssertTTFB) it additionally demands that the best
// adaptive policy's median time-to-first-bug not be worse than
// uniform's. The TTFB assert is beat-or-tie rather than strictly-beat
// on purpose: epoch 1 is allocated identically by every policy (no
// reward has arrived yet), so on workloads whose bugs surface inside
// the first epoch's share the medians tie at the floor by
// construction — a tie is the no-regression outcome, not a win for
// uniform.
//
// Everything is a pure function of (seeds, options): the workload,
// every campaign, the sample vectors, the p-values, and both rendered
// reports are bit-identical across reruns and worker counts.
package schedeval

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/conformance"
	"rff/internal/progen"
	"rff/internal/stats"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// Options configures a sched-eval run. The zero value of every field
// selects the default noted on it.
type Options struct {
	// Programs is the number of checked programs per seed (default 12).
	// Candidates whose ground truth does not enumerate (or enumerates
	// zero rf-pairs) are skipped deterministically, exactly like the
	// conformance harness, and at most 6x Programs are drawn per seed.
	Programs int
	// Seeds are the workload seeds; each seed generates its own program
	// set and campaign seed stream (default [1]).
	Seeds []int64
	// Specs are the strategy specs in the matrix (default
	// strategy.Names()).
	Specs []string
	// Policies are the budget policies to compare (default: "uniform"
	// plus every registered adaptive policy). "uniform" is the baseline
	// and is prepended when missing.
	Policies []string
	// Trials per (spec, program) cell for randomized strategies
	// (default 1).
	Trials int
	// Budget is the per-cell execution entitlement; the matrix pool is
	// Budget x cells, reallocated by the policy (default 300).
	Budget int
	// Epochs is the number of allocation epochs (default
	// budget.DefaultEpochs).
	Epochs int
	// GTBudget caps ground-truth enumeration per program (default 60000).
	GTBudget int
	// MaxSteps bounds every execution (default 4096).
	MaxSteps int
	// Workers bounds each campaign's fleet pool (default 1; results are
	// identical at any worker count).
	Workers int
	// Grammar names the progen grammar (default "core").
	Grammar string
	// Alpha is the significance level for the Mann-Whitney verdicts
	// (default 0.05).
	Alpha float64
	// AssertTTFB additionally fails the run when the best adaptive
	// policy's median time-to-first-bug is worse than uniform's (ties
	// pass: see the package comment).
	AssertTTFB bool
	// Telemetry, if non-nil, receives every campaign's metrics/events.
	Telemetry telemetry.Sink
	// Progress, if non-nil, is called after each completed (seed,
	// policy) campaign.
	Progress func(done, total int)
}

func (o *Options) fill() {
	if o.Programs <= 0 {
		o.Programs = 12
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1}
	}
	if len(o.Specs) == 0 {
		o.Specs = strategy.Names()
	}
	if len(o.Policies) == 0 {
		o.Policies = append([]string{"uniform"}, budget.AdaptivePolicies()...)
	} else if o.Policies[0] != "uniform" {
		rest := make([]string, 0, len(o.Policies))
		for _, p := range o.Policies {
			if p != "uniform" {
				rest = append(rest, p)
			}
		}
		o.Policies = append([]string{"uniform"}, rest...)
	}
	for _, p := range o.Policies {
		if !budget.ValidPolicy(p) {
			panic(fmt.Sprintf("schedeval: unknown budget policy %q (registered: %v)", p, budget.Policies()))
		}
	}
	if o.Trials <= 0 {
		o.Trials = 1
	}
	if o.Budget <= 0 {
		o.Budget = 300
	}
	if o.Epochs <= 0 {
		o.Epochs = budget.DefaultEpochs
	}
	if o.GTBudget <= 0 {
		o.GTBudget = 60000
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 4096
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Grammar == "" {
		o.Grammar = "core"
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.05
	}
}

// workload is one seed's checked program set with ground truth.
type workload struct {
	programs []bench.Program
	gt       map[string]map[string]struct{} // program name -> GT rf-pairs
	skipped  int
}

// buildWorkload generates one seed's program set with
// conformance.Workload, skipping — deterministically — the candidates
// whose ground truth does not enumerate completely or exposes zero
// rf-pairs.
func buildWorkload(ctx context.Context, opts Options, seed int64) (*workload, error) {
	features, err := progen.ParseGrammar(opts.Grammar)
	if err != nil {
		return nil, fmt.Errorf("schedeval: %w", err)
	}
	w := &workload{gt: make(map[string]map[string]struct{})}
	hasPairs := func(gt *conformance.GroundTruth) bool { return len(gt.Pairs()) > 0 }
	checked, skipped, err := conformance.Workload(ctx, seed, features, opts.Programs, opts.GTBudget, opts.MaxSteps, hasPairs,
		func(bp bench.Program, gt *conformance.GroundTruth) {
			w.programs = append(w.programs, bp)
			w.gt[bp.Name] = gt.Pairs()
		})
	switch {
	case errors.Is(err, conformance.ErrGaveUp):
		return nil, fmt.Errorf("schedeval: seed %d gave up after %d candidates (%d checked, %d skipped)",
			seed, checked+skipped, checked, skipped)
	case err != nil:
		return nil, fmt.Errorf("schedeval: workload aborted: %w", err)
	}
	w.skipped = skipped
	return w, nil
}

// policySamples accumulates one policy's raw distributions across
// every (seed, cell).
type policySamples struct {
	cov      []float64 // final GT-coverage fraction per cell
	ttfb     []float64 // global first-bug index per bug-finding cell
	covSums  []float64 // per-checkpoint coverage-fraction sums
	covCells int       // cells folded into covSums
	pool     int64
	spent    int64
	realloc  int
	bugs     int
}

// Run executes a sched-eval run to completion.
func Run(opts Options) *Report { return RunContext(context.Background(), opts) }

// RunContext executes a sched-eval run under ctx. For fixed (seeds,
// options) an uninterrupted run's report is bit-identical across
// repetitions and worker counts.
func RunContext(ctx context.Context, opts Options) *Report {
	opts.fill()
	rep := &Report{
		Seeds:    opts.Seeds,
		Programs: opts.Programs,
		Specs:    opts.Specs,
		Budget:   opts.Budget,
		Epochs:   opts.Epochs,
		Trials:   opts.Trials,
		Grammar:  opts.Grammar,
		Alpha:    opts.Alpha,
	}

	samples := make([]*policySamples, len(opts.Policies))
	for i := range samples {
		samples[i] = &policySamples{}
	}

	total := len(opts.Seeds) * len(opts.Policies)
	done := 0
	for _, seed := range opts.Seeds {
		w, err := buildWorkload(ctx, opts, seed)
		if err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.Checked += len(w.programs)
		rep.Skipped += w.skipped

		for pi, policy := range opts.Policies {
			if ctx.Err() != nil {
				rep.Err = fmt.Sprintf("schedeval: aborted: %v", ctx.Err())
				return rep
			}
			m, err := strategy.RunMatrix(ctx, opts.Specs, w.programs, strategy.Config{
				Trials:    opts.Trials,
				Budget:    opts.Budget,
				MaxSteps:  opts.MaxSteps,
				BaseSeed:  seed,
				Workers:   opts.Workers,
				Telemetry: opts.Telemetry,
				Budgeter: &budget.Config{
					Policy:        policy,
					Epochs:        opts.Epochs,
					CollectCovers: true,
				},
			})
			if err != nil {
				rep.Err = fmt.Sprintf("schedeval: %v", err)
				return rep
			}
			br := m.BudgetReport
			if br == nil {
				rep.Err = "schedeval: campaign returned no budget report"
				return rep
			}
			if len(rep.Checkpoints) == 0 {
				rep.Checkpoints = conformance.Checkpoints(int(br.Pool))
			}
			foldCampaign(samples[pi], br, w, rep.Checkpoints)
			done++
			if opts.Progress != nil {
				opts.Progress(done, total)
			}
		}
	}

	rep.Policies = make([]PolicyReport, len(opts.Policies))
	base := samples[0]
	for i, policy := range opts.Policies {
		s := samples[i]
		pr := PolicyReport{
			Policy:        policy,
			Pool:          s.pool,
			Spent:         s.spent,
			Reallocations: s.realloc,
			Bugs:          s.bugs,
			TTFB:          conformance.NewTTFB(s.ttfb),
			CoverageMean:  stats.Mean(s.cov) * 100,
			CoverageP:     1,
			TTFBP:         1,
		}
		pr.Coverage = make([]float64, len(rep.Checkpoints))
		if s.covCells > 0 {
			for j, sum := range s.covSums {
				pr.Coverage[j] = sum / float64(s.covCells) * 100
			}
		}
		if i > 0 {
			_, pr.CoverageP = stats.MannWhitneyU(s.cov, base.cov)
			if len(s.ttfb) > 0 && len(base.ttfb) > 0 {
				_, pr.TTFBP = stats.MannWhitneyU(s.ttfb, base.ttfb)
			}
			if pr.CoverageP < opts.Alpha && stats.Median(base.cov) > stats.Median(s.cov) {
				pr.WorseThanUniform = true
			}
		}
		rep.Policies[i] = pr
	}

	rep.Verdict = verdict(rep, opts)
	return rep
}

// foldCampaign folds one campaign's budget report into a policy's
// sample vectors, scoring coverage against the workload's ground truth.
func foldCampaign(s *policySamples, br *campaign.BudgetReport, w *workload, cp []int) {
	s.pool += br.Pool
	s.spent += br.Spent
	s.realloc += br.Reallocations
	if len(s.covSums) == 0 {
		s.covSums = make([]float64, len(cp))
	}
	for _, cell := range br.Cells {
		gtPairs := w.gt[cell.Program]
		var coverTimes []int
		for _, c := range cell.Covers {
			if _, ok := gtPairs[c.Pair]; ok {
				coverTimes = append(coverTimes, int(c.At))
			}
		}
		sort.Ints(coverTimes)
		curve := conformance.CoverageAt(cp, coverTimes, len(gtPairs))
		for j, f := range curve {
			s.covSums[j] += f
		}
		s.covCells++
		final := 0.0
		if len(curve) > 0 {
			final = curve[len(curve)-1]
		}
		s.cov = append(s.cov, final)
		if cell.Bug && cell.FirstBug > 0 {
			s.bugs++
			s.ttfb = append(s.ttfb, float64(cell.FirstBug))
		}
	}
}

// verdict renders the pass/fail decision the CI jobs assert on.
func verdict(rep *Report, opts Options) string {
	for _, pr := range rep.Policies[1:] {
		if pr.WorseThanUniform {
			return fmt.Sprintf("FAIL: policy %s is significantly worse than uniform on final coverage (p=%.4f)",
				pr.Policy, pr.CoverageP)
		}
	}
	if opts.AssertTTFB && len(rep.Policies) > 1 {
		uni := rep.Policies[0].TTFB
		best := -1.0
		bestPolicy := ""
		for _, pr := range rep.Policies[1:] {
			if pr.TTFB.Samples > 0 && (best < 0 || pr.TTFB.Median < best) {
				best = pr.TTFB.Median
				bestPolicy = pr.Policy
			}
		}
		switch {
		case uni.Samples == 0 || best < 0:
			return "FAIL: ttfb assertion requested but a side found no bugs"
		case best > uni.Median:
			return fmt.Sprintf("FAIL: best adaptive ttfb median %.1f (%s) is worse than uniform's %.1f",
				best, bestPolicy, uni.Median)
		}
	}
	return "pass"
}
