package campaign

import (
	"context"
	"fmt"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/exec"
	"rff/internal/fleet"
	"rff/internal/telemetry"
)

// This file is the matrix runner: the total execution pool (Budget x
// Trials x cells) is spent in epochs. Each epoch is one fleet wave; at
// the barrier the runner folds every cell's marginal rf-pair coverage
// and first-bug events into the budget.Allocator, which decides the
// next epoch's shares. All allocation decisions happen at the barrier
// in deterministic cell order from barrier-merged data, so the outcome
// matrix, the allocation trace, and the budget report are
// bit-identical at any worker count. A matrix without a Budgeter is
// one uniform epoch: every trial gets exactly its fixed budget, and
// neither coverage nor a budget report is collected.

// PairCover records the first time a (tool, program) cell covered an
// rf-pair, at an epoch-granular global execution index: executions
// spent by the whole matrix before the cell's epoch began, plus the
// cell's local index within the epoch.
type PairCover struct {
	Pair string `json:"pair"`
	At   int64  `json:"at"`
}

// BudgetCellReport is one (tool, program) cell's allocation record.
type BudgetCellReport struct {
	Tool      string `json:"tool"`
	Program   string `json:"program"`
	Allocated int64  `json:"allocated"`
	Spent     int64  `json:"spent"`
	NewPairs  int64  `json:"new_pairs"`
	// SharePct is the cell's percentage of the matrix's total spent
	// executions.
	SharePct float64 `json:"share_pct"`
	// FirstBug is the epoch-granular global execution index of the
	// cell's first failure (0 = none): matrix executions before the
	// finding epoch plus the finding trial's local index.
	FirstBug int64 `json:"first_bug,omitempty"`
	Bug      bool  `json:"bug"`
	Done     bool  `json:"done"`
	// Covers lists first-cover events when Config.CollectCovers was
	// set; the sched-eval harness turns these into coverage-at-
	// checkpoint curves.
	Covers []PairCover `json:"covers,omitempty"`
}

// BudgetReport is the machine-readable record of a budgeted matrix:
// the policy, the full allocation trace, and per-cell accounting. It
// is a pure function of (seed, policy, budget), like the outcomes.
type BudgetReport struct {
	Policy        string                   `json:"policy"`
	Epochs        int                      `json:"epochs"`
	MinShare      int                      `json:"min_share"`
	Pool          int64                    `json:"pool"`
	Spent         int64                    `json:"spent"`
	Reallocations int                      `json:"reallocations"`
	Cells         []BudgetCellReport       `json:"cells"`
	Trace         []budget.EpochAllocation `json:"trace"`
}

// pairCollector gathers one epoch cell's executions and first-seen
// rf-pairs. Only its own fleet cell touches it during the wave; the
// merge barrier reads it afterwards.
type pairCollector struct {
	execs int
	seen  map[string]int
	order []string
}

func newPairCollector() *pairCollector {
	return &pairCollector{seen: make(map[string]int)}
}

func (c *pairCollector) observe(res *exec.Result) {
	c.execs++
	if res.Trace == nil {
		return
	}
	for _, p := range res.Trace.RFPairs() {
		k := p.String()
		if _, ok := c.seen[k]; !ok {
			c.seen[k] = c.execs
			c.order = append(c.order, k)
		}
	}
}

// budgetedTrial is one trial's cumulative state across epochs.
type budgetedTrial struct {
	cum      int64
	firstBug int64
	corpus   int
	sigs     int
	err      string
	stack    string
	done     bool
}

// budgetedPair is one allocator cell: a (tool, program) pair and its
// trials, plus the pair's cumulative rf-pair set.
type budgetedPair struct {
	tool     Tool
	toolName string
	program  bench.Program
	trials   []budgetedTrial
	seen     map[string]struct{}
	covers   []PairCover
	firstBug int64
	bug      bool
	done     bool
}

func runMatrix(ctx context.Context, tools []Tool, programs []bench.Program, opts MatrixOptions, workers int) *MatrixResult {
	budgeted := opts.Budgeter != nil
	bcfg := budget.Config{Policy: "uniform", Epochs: 1}
	if budgeted {
		bcfg = *opts.Budgeter
	}
	maxTrials := 1
	var pairs []*budgetedPair
	res := &MatrixResult{
		Budget:   opts.Budget,
		Outcomes: make(map[string]map[string][]Outcome),
	}
	for _, tl := range tools {
		res.Tools = append(res.Tools, tl.Name())
		res.Outcomes[tl.Name()] = make(map[string][]Outcome)
		trials := opts.Trials
		if tl.Deterministic() {
			// Deterministic tools run a single trial that absorbs the
			// whole per-pair entitlement (the paper gives every tool
			// the same budget).
			trials = 1
		}
		if trials > maxTrials {
			maxTrials = trials
		}
		for _, p := range programs {
			res.Outcomes[tl.Name()][p.Name] = make([]Outcome, trials)
			pairs = append(pairs, &budgetedPair{
				tool:     tl,
				toolName: tl.Name(),
				program:  p,
				trials:   make([]budgetedTrial, trials),
				seen:     make(map[string]struct{}),
			})
		}
	}
	for _, p := range programs {
		res.Programs = append(res.Programs, p.Name)
	}
	if len(pairs) == 0 {
		return res
	}

	// The pair floor must fund every live trial of a funded pair, or
	// the last trial of a multi-trial pair could starve forever.
	if bcfg.MinShare < maxTrials {
		bcfg.MinShare = maxTrials
	}
	allocSeed := int64(splitmix(uint64(opts.BaseSeed) ^ hashString("budget-allocator")))
	alloc, err := budget.New(len(pairs), allocSeed, bcfg)
	if err != nil {
		// Every entry point validates the config before reaching the
		// matrix; failing loudly beats silently falling back to fixed
		// budgets.
		panic(fmt.Sprintf("campaign: invalid budget config: %v", err))
	}
	bcfg = alloc.Config()
	totalPool := int64(opts.Budget) * int64(opts.Trials) * int64(len(pairs))
	tel := opts.Telemetry

	if tel != nil {
		tel.Emit(telemetry.EvCampaignStart, telemetry.Fields{
			"tools":         res.Tools,
			"programs":      len(res.Programs),
			"trials":        opts.Trials,
			"budget":        opts.Budget,
			"budget_policy": bcfg.Policy,
			"epochs":        bcfg.Epochs,
			"pool":          totalPool,
			"workers":       workers,
		})
	}

	var globalSpent int64
	alloc.Spend(ctx, totalPool, func(e, pool int, shares []int) []budget.Yield {
		// Fan the epoch out: each funded pair's share splits evenly
		// across its live trials (remainder to the lowest indexes),
		// and every funded (pair, trial) becomes one fleet cell.
		type epochJob struct {
			pair  int
			trial int
			share int
			col   *pairCollector // nil without a Budgeter
			obs   ResultObserver // col's, then opts.Observe's; nil for neither
		}
		var jobs []epochJob
		for pi, share := range shares {
			if share <= 0 {
				continue
			}
			ps := pairs[pi]
			var live []int
			for ti := range ps.trials {
				if !ps.trials[ti].done {
					live = append(live, ti)
				}
			}
			base, rem := share/len(live), share%len(live)
			for k, ti := range live {
				s := base
				if k < rem {
					s++
				}
				if s > 0 {
					j := epochJob{pair: pi, trial: ti, share: s}
					if budgeted {
						j.col = newPairCollector()
						j.obs = j.col.observe
					}
					if opts.Observe != nil {
						j.obs = chainObservers(j.obs, opts.Observe(ps.toolName, ps.program.Name, ti))
					}
					jobs = append(jobs, j)
				}
			}
		}
		cells := make([]fleet.Cell[Outcome], len(jobs))
		for i, j := range jobs {
			j := j
			ps := pairs[j.pair]
			cells[i] = fleet.Cell[Outcome]{
				ID: fmt.Sprintf("%s/%s[%d]@e%d", ps.toolName, ps.program.Name, j.trial, e),
				// The canonical strategy name labels the fleet's per-cell
				// telemetry series, keeping per-strategy durations apart.
				Spec: ps.toolName,
				Run: func(cctx context.Context) (Outcome, error) {
					tool := ps.tool
					if ot, ok := tool.(ObservableTool); ok && j.obs != nil {
						tool = ot.WithObserver(j.obs)
					}
					seed := budget.EpochSeed(TrialSeed(opts.BaseSeed, ps.toolName, ps.program.Name, j.trial), e)
					return tool.Run(cctx, ps.program, j.share, opts.MaxSteps, seed), nil
				},
			}
		}
		results := fleet.Run(ctx, cells, fleet.Options{
			Workers:     workers,
			CellTimeout: opts.TrialTimeout,
			OnDone:      opts.Progress,
			Telemetry:   tel,
		})

		// Barrier: fold the wave back in deterministic job order, then
		// report every live pair's yield. Nothing below reads anything
		// scheduling-dependent.
		ys := make([]budget.Yield, len(pairs))
		for i, r := range results {
			j := jobs[i]
			ps := pairs[j.pair]
			ts := &ps.trials[j.trial]
			y := &ys[j.pair].Reward
			out := r.Value
			// Any other error is a cell the cancelled pool never
			// started: its trial stays unfinished, and the final
			// accounting records the abort.
			if r.Panicked {
				out = Outcome{Err: r.Err.Error(), Stack: r.Stack}
			}
			if out.Found() && ts.firstBug == 0 {
				ts.firstBug = ts.cum + int64(out.FirstBug)
				ts.done = true
				y.FirstBug = true
				if cand := globalSpent + int64(out.FirstBug); ps.firstBug == 0 || cand < ps.firstBug {
					ps.firstBug = cand
				}
				ps.bug = true
			}
			if out.Errored() {
				ts.err = out.Err
				ts.stack = out.Stack
				ts.done = true
			}
			ts.cum += int64(out.Executions)
			if out.CorpusSize > 0 {
				ts.corpus = out.CorpusSize
			}
			if out.UniqueSigs > 0 {
				ts.sigs = out.UniqueSigs
			}
			y.Executions += out.Executions
			if j.col == nil {
				continue
			}
			for _, pk := range j.col.order {
				if _, dup := ps.seen[pk]; dup {
					continue
				}
				ps.seen[pk] = struct{}{}
				y.NewPairs++
				if bcfg.CollectCovers {
					ps.covers = append(ps.covers, PairCover{Pair: pk, At: globalSpent + int64(j.col.seen[pk])})
				}
			}
		}
		var waveExecs int64
		var waveNew, active int
		for pi, ps := range pairs {
			if ps.done {
				continue
			}
			allDone := true
			for ti := range ps.trials {
				if !ps.trials[ti].done {
					allDone = false
					break
				}
			}
			if !allDone {
				active++
			}
			ps.done, ys[pi].Done = allDone, allDone
			waveExecs += int64(ys[pi].Reward.Executions)
			waveNew += ys[pi].Reward.NewPairs
		}
		globalSpent += waveExecs
		if tel != nil && budgeted {
			tel.Add(telemetry.MBudgetEpochs, 1)
			tel.Emit(telemetry.EvBudgetEpoch, telemetry.Fields{
				"epoch":      e,
				"pool":       pool,
				"executions": waveExecs,
				"new_pairs":  waveNew,
				"active":     active,
				"spent":      globalSpent,
			})
		}
		return ys
	})

	// Final accounting in matrix order: outcomes and trial events.
	cancelled := ctx.Err()
	for _, ps := range pairs {
		for ti := range ps.trials {
			ts := &ps.trials[ti]
			if cancelled != nil && !ts.done && ts.err == "" && ts.firstBug == 0 {
				ts.err = fmt.Sprintf("trial aborted after %d schedules: %v", ts.cum, cancelled)
			}
			out := Outcome{
				FirstBug:   int(ts.firstBug),
				Executions: int(ts.cum),
				Budget:     int(ts.cum),
				CorpusSize: ts.corpus,
				UniqueSigs: ts.sigs,
				Err:        ts.err,
				Stack:      ts.stack,
			}
			if !budgeted {
				// A fixed trial is censored at its entitlement.
				out.Budget = opts.Budget
				if ps.tool.Deterministic() {
					out.Budget *= opts.Trials
				}
			}
			res.Outcomes[ps.toolName][ps.program.Name][ti] = out
			if tel != nil {
				recordTrial(tel, ps.toolName, ps.program.Name, ti, out)
			}
		}
	}
	if budgeted {
		res.BudgetReport = budgetReport(alloc, pairs, globalSpent, totalPool, tel)
	}
	if tel != nil {
		tel.Emit(telemetry.EvCampaignDone, telemetry.Fields{
			"epochs": alloc.Epoch(),
			"pool":   totalPool,
			"spent":  globalSpent,
			"errors": len(res.TrialErrors()),
		})
	}
	return res
}

// recordTrial counts one finished trial and emits its terminal event:
// trial-done, or trial_error (with the panic stack) when it aborted.
func recordTrial(t telemetry.Sink, tool, program string, trial int, out Outcome) {
	labels := []telemetry.Label{{Name: "tool", Value: tool}, {Name: "program", Value: program}}
	t.Add(telemetry.MTrialsDone, 1, labels...)
	fields := telemetry.Fields{"tool": tool, "program": program, "trial": trial}
	if !out.Errored() {
		fields["executions"] = out.Executions
		fields["first_bug"] = out.FirstBug
		t.Emit(telemetry.EvTrialDone, fields)
		return
	}
	t.Add(telemetry.MTrialPanics, 1, labels...)
	fields["error"] = out.Err
	if out.Stack != "" {
		fields["stack"] = out.Stack
	}
	t.Emit(telemetry.EvTrialError, fields)
}

// budgetReport builds a budgeted matrix's allocation record and sets
// the per-cell share gauges and the reallocation counter.
func budgetReport(alloc *budget.Allocator, pairs []*budgetedPair, spent, pool int64, tel telemetry.Sink) *BudgetReport {
	bcfg := alloc.Config()
	states := alloc.Cells()
	rep := &BudgetReport{
		Policy:        bcfg.Policy,
		Epochs:        alloc.Epoch(),
		MinShare:      bcfg.MinShare,
		Pool:          pool,
		Spent:         spent,
		Reallocations: alloc.Reallocations(),
		Trace:         alloc.Trace(),
	}
	for pi, ps := range pairs {
		st := states[pi]
		cell := BudgetCellReport{
			Tool:      ps.toolName,
			Program:   ps.program.Name,
			Allocated: st.Allocated,
			Spent:     st.Spent,
			NewPairs:  st.NewPairs,
			FirstBug:  ps.firstBug,
			Bug:       ps.bug,
			Done:      ps.done,
			Covers:    ps.covers,
		}
		if spent > 0 {
			cell.SharePct = 100 * float64(st.Spent) / float64(spent)
		}
		rep.Cells = append(rep.Cells, cell)
		if tel != nil {
			tel.Set(telemetry.MBudgetShare, int64(cell.SharePct+0.5),
				telemetry.L("tool", ps.toolName), telemetry.L("program", ps.program.Name))
		}
	}
	if tel != nil {
		tel.Add(telemetry.MBudgetReallocations, int64(rep.Reallocations))
	}
	return rep
}
