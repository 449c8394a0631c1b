package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"rff/internal/budget"
	"rff/internal/progen"
	"rff/internal/schedeval"
	"rff/internal/telemetry"
)

// cmdSchedEval runs the adaptive-budget statistical harness: a seeded
// progen workload evaluated once per budget policy (uniform baseline
// first), with Mann-Whitney comparisons of the coverage and
// time-to-first-bug distributions. The run is a pure function of
// (seeds, flags): identical invocations print identical summaries and
// write identical result files, at any -workers. Exits 1 when any
// adaptive policy is significantly worse than uniform (or, with
// -assert-ttfb, when the best adaptive policy's median
// time-to-first-bug is worse than uniform's).
func cmdSchedEval(fs *flag.FlagSet, s *shared) func() error {
	programs := fs.Int("programs", 12, "checked programs per seed")
	seedsFlag := fs.String("seeds", "1", "comma-separated workload seeds")
	policiesFlag := fs.String("policies", strings.Join(append([]string{"uniform"}, budget.AdaptivePolicies()...), ","),
		"comma-separated budget policies to compare; uniform is the baseline")
	trials := fs.Int("trials", 1, "trials per (spec, program) for randomized strategies")
	cellBudget := fs.Int("budget", 300, "per-cell execution entitlement (pool = budget x cells)")
	gtBudget := fs.Int("gt-budget", 60000, "ground-truth enumeration budget per program")
	grammar := fs.String("grammar", "core",
		"progen grammar to draw programs from ("+strings.Join(progen.Grammars(), ", ")+")")
	alpha := fs.Float64("alpha", 0.05, "Mann-Whitney significance level")
	assertTTFB := fs.Bool("assert-ttfb", false,
		"additionally fail when the best adaptive policy's median time-to-first-bug is worse than uniform's (ties pass)")
	out := fs.String("out", "", "directory for summary.txt, coverage.txt, and report.json")
	return func() error {
		if err := positive(fs, "programs", "trials", "budget", "gt-budget"); err != nil {
			return err
		}
		seeds, err := splitList("seeds", *seedsFlag, func(e string) (int64, error) {
			return strconv.ParseInt(e, 10, 64)
		})
		if err != nil {
			return err
		}
		policies, err := splitList("policies", *policiesFlag, func(p string) (string, error) {
			if !budget.ValidPolicy(p) {
				return "", fmt.Errorf("unknown budget policy %q (registered: %s)", p, strings.Join(budget.Policies(), ", "))
			}
			return p, nil
		})
		if err != nil {
			return err
		}
		if _, err := progen.ParseGrammar(*grammar); err != nil {
			return usageError{err}
		}
		var rep *schedeval.Report
		if err := s.run("sched-eval", func(sink telemetry.Sink) error {
			rep = schedeval.RunContext(context.Background(), schedeval.Options{
				Programs:   *programs,
				Seeds:      seeds,
				Specs:      s.specs,
				Policies:   policies,
				Trials:     *trials,
				Budget:     *cellBudget,
				Epochs:     s.budgetEpochs,
				GTBudget:   *gtBudget,
				MaxSteps:   s.maxSteps,
				Workers:    s.workers,
				Grammar:    *grammar,
				Alpha:      *alpha,
				AssertTTFB: *assertTTFB,
				Telemetry:  sink,
				Progress:   s.progress("campaigns", 1),
			})
			return nil
		}); err != nil {
			return err
		}
		if err := s.writeResults(*out, rep); err != nil {
			return err
		}
		if !rep.OK() {
			return errReported
		}
		return nil
	}
}
