package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rff/internal/bench"
	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/progen"
	"rff/internal/store"
	"rff/internal/strategy"
	"rff/internal/telemetry"
	"rff/internal/triage"
)

// triageCollector records an artifact for every failing execution one
// campaign-mode trial observes.
type triageCollector struct {
	tool string
	arts []*core.Artifact
}

func (c *triageCollector) observe(res *exec.Result) {
	if res.Failure == nil {
		return
	}
	f := *res.Failure
	c.arts = append(c.arts, core.NewArtifact(res.Program, core.FailureRecord{
		Seed:      res.Seed,
		Failure:   &f,
		Decisions: res.Trace.ThreadOrder(),
	}))
}

// cmdTriage minimizes and clusters crash artifacts into a regression
// corpus and prints the ranked report. Three input modes: a crash
// directory (-in), an rffd data directory (-store), or campaign mode
// (-progen-seed: generate programs, fuzz them, triage the failures —
// the CI smoke path). Identical inputs produce byte-identical
// corpus.json and report.json.
func cmdTriage(fs *flag.FlagSet, s *shared) func() error {
	in := fs.String("in", "", "triage crash artifacts (*.json) under this directory")
	storeDir := fs.String("store", "", "triage artifacts recorded in this rffd data directory")
	progenSeed := fs.Int64("progen-seed", 0, "campaign mode: generate programs from this seed, fuzz them, and triage the failures")
	progenCount := fs.Int("progen-count", 8, "campaign mode: programs to generate")
	progenGrammar := fs.String("progen-grammar", "core", "campaign mode: progen grammar to draw from (core, chan, sync, all)")
	campBudget := fs.Int("campaign-budget", 300, "campaign mode: schedules per trial")
	trials := fs.Int("trials", 1, "campaign mode: trials per (tool, program)")
	toolLabel := fs.String("tool", "", "tool to attribute -in artifacts to (default: unknown)")
	out := fs.String("out", "triage-corpus", "regression corpus directory (replayed by `rff regress`)")
	reportPath := fs.String("report", "", "also write the ranked report as JSON to this file")
	probeBudget := fs.Int("budget", 0, "minimization probe budget per artifact (0 = triage default)")
	return func() error {
		modes := 0
		for _, set := range []bool{*in != "", *storeDir != "", *progenSeed != 0} {
			if set {
				modes++
			}
		}
		if modes != 1 {
			return usagef("triage: exactly one of -in, -store, -progen-seed is required")
		}
		if err := positive(fs, "progen-count", "campaign-budget", "trials"); err != nil {
			return err
		}
		feats, err := progen.ParseGrammar(*progenGrammar)
		if err != nil {
			return usageError{err}
		}
		var rep *triage.Report
		if err := s.run("", func(telemetry.Sink) error {
			tr := triage.New(triage.Config{Budget: *probeBudget, MaxSteps: s.maxSteps})
			var skipped []string
			var err error
			switch {
			case *in != "":
				skipped, err = triage.FromDir(tr, *in, *toolLabel)
			case *storeDir != "":
				skipped, err = triageStore(tr, *storeDir)
			default:
				skipped, err = triageCampaign(tr, s, *progenSeed, *progenCount, feats, *campBudget, *trials)
			}
			if err == nil {
				err = triage.SaveCorpus(tr, *out)
			}
			if err != nil {
				return err
			}
			rep = triage.BuildReport(tr, *out, skipped)
			return nil
		}); err != nil {
			return err
		}
		if *reportPath != "" {
			data, err := rep.Encode()
			if err == nil {
				err = os.WriteFile(*reportPath, data, 0o644)
			}
			if err != nil {
				return err
			}
		}
		rep.Render(os.Stdout)
		fmt.Printf("corpus: %s (replay with `rff regress -corpus %s`)\n", *out, *out)
		return nil
	}
}

// triageStore feeds the artifacts recorded in an rffd data directory
// through the triager.
func triageStore(tr *triage.Triager, dir string) ([]string, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	idx, err := store.OpenIndex(st)
	if err != nil {
		return nil, err
	}
	return triage.FromStore(tr, st, idx)
}

// triageCampaign fuzzes progen-generated programs with every tool in one
// campaign matrix and feeds every observed failure through the triager,
// in a deterministic (tool, program, content) order.
func triageCampaign(tr *triage.Triager, s *shared, progenSeed int64, count int, feats progen.Features, budget, trials int) ([]string, error) {
	gen := progen.NewGenerator(progenSeed, progen.Options{Features: feats})
	var programs []bench.Program
	for i := 0; i < count; i++ {
		programs = append(programs, gen.Next().Bench())
	}
	tools, err := strategy.ResolveAll(s.specs, strategy.Config{})
	if err != nil {
		return nil, err
	}

	// Observe runs on the matrix's coordinator; each trial's collector
	// is then touched only by the cell running that trial.
	type trialKey struct {
		tool, program string
		trial         int
	}
	cols := make(map[trialKey]*triageCollector)
	m := campaign.RunMatrix(tools, programs, campaign.MatrixOptions{
		Trials:   trials,
		Budget:   budget,
		MaxSteps: s.maxSteps,
		BaseSeed: s.seed,
		Observe: func(tool, program string, trial int) campaign.ResultObserver {
			k := trialKey{tool, program, trial}
			if cols[k] == nil {
				cols[k] = &triageCollector{tool: tool}
			}
			return cols[k].observe
		},
	})
	if errs := m.TrialErrors(); len(errs) > 0 {
		return nil, fmt.Errorf("%d campaign trials aborted:\n  %s", len(errs), strings.Join(errs, "\n  "))
	}

	type tagged struct {
		art  *core.Artifact
		tool string
		data []byte
	}
	var arts []tagged
	for _, col := range cols {
		for _, a := range col.arts {
			data, err := core.EncodeArtifact(a)
			if err != nil {
				continue
			}
			arts = append(arts, tagged{art: a, tool: col.tool, data: data})
		}
	}
	// Fix the ingestion order so first-seen ordinals (and therefore the
	// report) are a pure function of the campaign parameters.
	sort.Slice(arts, func(i, j int) bool {
		if arts[i].tool != arts[j].tool {
			return arts[i].tool < arts[j].tool
		}
		if arts[i].art.Program != arts[j].art.Program {
			return arts[i].art.Program < arts[j].art.Program
		}
		return string(arts[i].data) < string(arts[j].data)
	})
	var skipped []string
	for _, ta := range arts {
		if _, err := tr.Add(ta.art, ta.tool); err != nil {
			skipped = append(skipped, fmt.Sprintf("%s %s: %v", ta.tool, ta.art.Program, err))
		}
	}
	return skipped, nil
}
