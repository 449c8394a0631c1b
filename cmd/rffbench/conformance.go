package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rff/internal/conformance"
	"rff/internal/progen"
	"rff/internal/telemetry"
)

// cmdConformance runs the differential conformance harness: generated
// programs cross-checked against systematic ground truth, every
// registered strategy held to the soundness and replay invariants. The
// run is a pure function of (seed, flags): identical invocations print
// identical summaries and write identical result files. Exits 1 on any
// violation.
func cmdConformance(fs *flag.FlagSet, s *shared) func() error {
	programs := fs.Int("programs", 50, "generated programs to check")
	trials := fs.Int("trials", 1, "trials per (program, spec) for randomized strategies")
	cellBudget := fs.Int("budget", 300, "schedule budget per trial")
	gtBudget := fs.Int("gt-budget", 60000, "ground-truth enumeration budget per program")
	grammar := fs.String("grammar", "core",
		"progen grammar to draw programs from ("+strings.Join(progen.Grammars(), ", ")+")")
	out := fs.String("out", "", "directory for summary.txt, coverage.txt, and report.json (e.g. results/conformance)")
	return func() error {
		if err := positive(fs, "programs", "trials", "budget", "gt-budget"); err != nil {
			return err
		}
		if _, err := progen.ParseGrammar(*grammar); err != nil {
			return usageError{err}
		}
		var rep *conformance.Report
		if err := s.run("conformance", func(sink telemetry.Sink) error {
			rep = conformance.RunContext(context.Background(), conformance.Options{
				Programs:     *programs,
				Seed:         s.seed,
				Specs:        s.specs,
				Trials:       *trials,
				Budget:       *cellBudget,
				GTBudget:     *gtBudget,
				MaxSteps:     s.maxSteps,
				Workers:      s.workers,
				Grammar:      *grammar,
				BudgetPolicy: s.budgetPolicy,
				BudgetEpochs: s.budgetEpochs,
				Telemetry:    sink,
				Progress:     s.progress("programs", 5),
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

// results is a harness report with a deterministic text rendering.
type results interface {
	Summary() string
	CoverageCurves() string
}

// writeResults prints rep's summary and coverage curves and, with -out,
// persists them into dir beside the full machine-readable report.json.
func (s *shared) writeResults(dir string, rep results) error {
	fmt.Print(rep.Summary(), "\n", rep.CoverageCurves())
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling report: %w", err)
	}
	for _, f := range [][2]string{
		{"summary.txt", rep.Summary()},
		{"coverage.txt", rep.CoverageCurves()},
		{"report.json", string(data) + "\n"},
	} {
		if err := os.WriteFile(filepath.Join(dir, f[0]), []byte(f[1]), 0o644); err != nil {
			return err
		}
	}
	if !s.quiet {
		fmt.Fprintf(os.Stderr, "wrote %s\n", dir)
	}
	return nil
}
