package main

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"time"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/exec"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// Panel sizing. Each group is one budgeted matrix (one panel trial); a
// round runs every group.
const (
	panelTrials = 1
	panelBudget = 100
	panelPolicy = "ucb"
)

// panelGroups are balanced so each matrix takes about as long as the
// others (a slow program with fast ones), keeping the median trial
// inside one mode of matrix times.
var panelGroups = [][]string{
	{"CS/reorder_10", "CS/account", "CS/lazy01"},
	{"Chess/WorkStealQueue", "CS/stack", "CS/twostage", "CS/token_ring"},
	{"CS/wronglock", "RADBench/bug4", "CS/queue", "CB/stringbuffer-jdk1.4"},
}

// failLog collects the failing executions a matrix's tools report to
// their result observer, from every fleet worker.
type failLog struct {
	mu    sync.Mutex
	fails []failRec
}

func (l *failLog) observe(res *exec.Result) {
	if res.Failure == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fails = append(l.fails, failRec{res.Program, res.Failure.Kind, res.Trace.ThreadOrder()})
}

// panelSetup resolves everything a panel round needs: the program
// groups, the strategy lineup, and each group's budget allocator.
func panelSetup() [][]bench.Program {
	groups := make([][]bench.Program, len(panelGroups))
	for i, names := range panelGroups {
		for _, n := range names {
			groups[i] = append(groups[i], bench.MustGet(n))
		}
	}
	specs := strategy.DefaultSpecs()
	if _, err := strategy.ResolveAll(specs, strategy.Config{}); err != nil {
		panic(err)
	}
	bc := budget.Config{Policy: panelPolicy}
	if err := bc.Validate(); err != nil {
		panic(err)
	}
	for i, g := range groups {
		if _, err := budget.New(len(specs)*len(g), int64(i), bc); err != nil {
			panic(err)
		}
	}
	return groups
}

func panelMatrix(seed int64, group []bench.Program, obs campaign.ResultObserver, tel telemetry.Sink) (*campaign.MatrixResult, error) {
	return strategy.RunMatrix(context.Background(), strategy.DefaultSpecs(), group, strategy.Config{
		Observer:  obs,
		Telemetry: tel,
		Trials:    panelTrials,
		Budget:    panelBudget,
		MaxSteps:  maxSteps,
		BaseSeed:  seed,
		Workers:   numThreads(),
		Budgeter:  &budget.Config{Policy: panelPolicy},
	})
}

// sameMatrix reports whether two runs of one matrix agree in every
// outcome and in the budget allocation.
func sameMatrix(a, b *campaign.MatrixResult) bool {
	return reflect.DeepEqual(a.Outcomes, b.Outcomes) && reflect.DeepEqual(a.BudgetReport, b.BudgetReport)
}

func outcomeCount(m *campaign.MatrixResult) int {
	n := 0
	for _, byProg := range m.Outcomes {
		for _, outs := range byProg {
			n += len(outs)
		}
	}
	return n
}

// gateMatrix checks one matrix's result: the budget pool is not
// overspent, no trial errored, and every failure replays. It adds the
// matrix's search counts to bs.
func gateMatrix(o *outcome, m *campaign.MatrixResult, fails []failRec, bs *bugStats) {
	br := m.BudgetReport
	if br == nil {
		o.problem("matrix over %v has no budget report", m.Programs)
		o.failed++
		return
	}
	if br.Spent > br.Pool {
		o.problem("matrix over %v spent %d of a %d pool", m.Programs, br.Spent, br.Pool)
		o.failed++
	}
	for _, e := range m.TrialErrors() {
		o.problem("trial error: %s", e)
		o.failed++
	}
	for _, t := range m.Tools {
		for _, p := range m.Programs {
			for _, out := range m.Outcomes[t][p] {
				if out.Found() {
					bs.addFailures([]int{out.FirstBug})
				} else {
					bs.addFailures(nil)
				}
			}
		}
	}
	pairs := 0
	for _, c := range br.Cells {
		pairs += int(c.NewPairs)
	}
	bs.addPairs(pairs)
	for _, f := range fails {
		if err := replayFailure(f.program, bench.MustGet(f.program).Body, maxSteps, f.kind, f.decisions); err != nil {
			o.problem("%v", err)
			o.failed++
		}
	}
}

// panelSeed is the base seed of round r's matrices.
func panelSeed(seed int64, r int) int64 { return campaign.TrialSeed(seed, "panel", "", r) }

func runPanel(cfg config) *outcome {
	o := newOutcome()
	groups := panelSetup()
	matrices := make([]*campaign.MatrixResult, len(groups))
	fails := make([][]failRec, len(groups))
	var log failLog
	var bs bugStats
	ls := repeatSet(len(groups), cfg.seconds, numThreads(), func() { panelSetup() }, func(r, i int) int {
		log.fails = nil
		m, err := panelMatrix(panelSeed(cfg.seed, r), groups[i], log.observe, nil)
		if err != nil {
			o.problem("matrix over %s: %v", strings.Join(panelGroups[i], ","), err)
			o.failed++
			return 0
		}
		o.attempted += outcomeCount(m)
		matrices[i], fails[i] = m, log.fails
		if m.BudgetReport == nil {
			return 0
		}
		return int(m.BudgetReport.Spent)
	}, func(r int) {
		for i, m := range matrices {
			if m != nil {
				gateMatrix(o, m, fails[i], &bs)
			}
		}
		if r == 0 {
			o.notes["round1_digest"] = digest(matrices)
		}
		clear(matrices)
		clear(fails)
	})
	endToEnd(o, ls, bs)
	return o
}

// strategyKeys maps each default strategy's tool name to its metric key
// (its spec without the colon: "pct:3" -> "pct3").
func strategyKeys() map[string]string {
	keys := make(map[string]string)
	for _, s := range strategy.DefaultSpecs() {
		keys[strategy.MustResolve(s, strategy.Config{}).Name()] = strings.ReplaceAll(s, ":", "")
	}
	return keys
}

// tracePanel runs every matrix twice: untraced, and with a telemetry hub
// whose fleet and budget series give the per-layer metrics. Both runs
// must agree.
func tracePanel(cfg config) *outcome {
	o := newOutcome()
	groups := panelSetup()
	keys := strategyKeys()
	cellUS := make(map[string]int64)
	cells := make(map[string]int64)
	var plainNS, tracedNS, busyUS, epochs, reallocs, matrices int64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i, g := range groups {
			if round > 0 && !time.Now().Before(deadline) {
				break
			}
			o.attempted++
			var plain, traced *campaign.MatrixResult
			var err1, err2 error
			hub := telemetry.NewHub()
			runPlain := func() {
				t := time.Now()
				plain, err1 = panelMatrix(panelSeed(cfg.seed, round), g, nil, nil)
				plainNS += int64(time.Since(t))
			}
			runTraced := func() {
				t := time.Now()
				traced, err2 = panelMatrix(panelSeed(cfg.seed, round), g, nil, hub)
				tracedNS += int64(time.Since(t))
			}
			// Alternate which run goes first, as traceCampaigns does.
			if o.attempted%2 == 0 {
				runPlain()
				runTraced()
			} else {
				runTraced()
				runPlain()
			}
			if err1 != nil || err2 != nil || !sameMatrix(plain, traced) || traced.BudgetReport == nil {
				o.problem("matrix over %s: traced run differs from untraced (%v, %v)", strings.Join(panelGroups[i], ","), err1, err2)
				o.failed++
				continue
			}
			snap := hub.Snapshot()
			for _, m := range snap.Metrics {
				if m.Name != telemetry.MFleetCellDuration || m.Hist == nil {
					continue
				}
				k := keys[m.Labels["spec"]]
				cellUS[k] += m.Hist.Sum
				cells[k] += m.Hist.Count
				busyUS += m.Hist.Sum
			}
			epochs += snap.Total(telemetry.MBudgetEpochs)
			reallocs += int64(traced.BudgetReport.Reallocations)
			matrices++
		}
	}
	if matrices == 0 {
		return o
	}
	// Utilization over whole matrices: cell time over wall time times
	// workers (the fleet gauge covers only each matrix's last wave).
	o.set("fleet.utilization_pct", "%", 100*float64(busyUS)*1e3/(float64(tracedNS)*float64(numThreads())))
	o.set("budget.epochs", "count", float64(epochs)/float64(matrices))
	o.set("budget.reallocations", "count", float64(reallocs)/float64(matrices))
	for _, k := range keys {
		if cells[k] > 0 {
			o.set("strategy."+k+".cell_ms_mean", "ms", float64(cellUS[k])/float64(cells[k])/1e3)
		}
		o.set("strategy."+k+".share_pct", "%", 100*float64(cellUS[k])/float64(busyUS))
	}
	o.set("trace_overhead_pct", "%", 100*(float64(tracedNS)/float64(plainNS)-1))
	o.notes["traced_matrices"] = matrices
	return o
}
