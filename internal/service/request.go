// Package service is the rffd campaign daemon: an HTTP/JSON API over a
// bounded job queue, a scheduler that runs submitted campaigns through
// the strategy registry and the fleet pool, live telemetry streamed as
// Server-Sent Events (with replay-from-start for late subscribers), and
// a content-addressed artifact store that makes identical re-submissions
// cache hits instead of re-runs.
//
// The layering is queue → scheduler → fleet → store: Submit validates a
// CampaignRequest at the API boundary (spec canonicalization through
// internal/strategy, program resolution through bench/progen), the
// scheduler's workers execute each job's evaluation matrix under a
// per-job context, and a finished job persists its report, crash
// artifacts, and event history as content-addressed blobs indexed by
// the request's cache key.
package service

import (
	"encoding/json"
	"fmt"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/progen"
	"rff/internal/store"
	"rff/internal/strategy"
)

// Request-size ceilings: the daemon is long-lived and multi-tenant, so
// a single submission cannot claim unbounded compute.
const (
	// MaxBudget bounds schedules per trial.
	MaxBudget = 10_000_000
	// MaxTrials bounds trials per (tool, program) cell.
	MaxTrials = 1000
	// MaxProgenCount bounds generated programs per campaign.
	MaxProgenCount = 64
	// MaxShards bounds worker shards per RFF trial.
	MaxShards = 64
	// MaxBudgetEpochs bounds allocation epochs under an adaptive budget
	// policy.
	MaxBudgetEpochs = 64
)

// CampaignRequest is the submission body of POST /v1/campaigns: which
// program(s) to fuzz, under which strategies, with how much compute.
// Exactly one of Program / ProgenSeed selects the workload.
type CampaignRequest struct {
	// Program names a built-in benchmark program (see `rff list` or
	// GET /v1/programs).
	Program string `json:"program,omitempty"`
	// ProgenSeed, when non-zero, generates the workload from the
	// internal/progen grammar instead: a deterministic stream of small
	// concurrent programs that is a pure function of the seed.
	ProgenSeed int64 `json:"progen_seed,omitempty"`
	// ProgenCount is how many generated programs to draw (default 1).
	ProgenCount int `json:"progen_count,omitempty"`
	// Tools are strategy specs resolved through internal/strategy
	// (default ["rff"]). Validation canonicalizes them, so "pct" and
	// "pct:3" submit identical campaigns.
	Tools []string `json:"tools,omitempty"`
	// Budget is the schedule budget per trial (default 2000).
	Budget int `json:"budget,omitempty"`
	// Trials per (tool, program) cell (default 1).
	Trials int `json:"trials,omitempty"`
	// MaxSteps bounds each execution (0 = engine default).
	MaxSteps int `json:"max_steps,omitempty"`
	// Seed is the campaign base seed (default 1); every trial derives
	// its own seed from it via campaign.TrialSeed.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the job's fleet pool (0 = GOMAXPROCS). Results are
	// bit-identical at any worker count, so Workers is an execution
	// hint: it is excluded from the cache key.
	Workers int `json:"workers,omitempty"`
	// Shards, when >= 1, runs RFF trials on the sharded runner with
	// that many worker shards. Unlike Workers, Shards is NOT an
	// execution hint: the sharded runner is a distinct (still
	// deterministic) algorithm whose reports differ from the sequential
	// loop's, so Shards stays in the cache key.
	Shards int `json:"shards,omitempty"`
	// BudgetPolicy, when non-empty, runs the campaign under the adaptive
	// budget allocator (internal/budget): the matrix's per-cell budgets
	// become a shared pool reallocated across epochs by per-cell reward.
	// Like Shards, the policy changes the computation (and its report),
	// so it stays in the cache key.
	BudgetPolicy string `json:"budget_policy,omitempty"`
	// BudgetEpochs is the allocation epoch count under BudgetPolicy
	// (default budget.DefaultEpochs; must be 0 when BudgetPolicy is
	// empty).
	BudgetEpochs int `json:"budget_epochs,omitempty"`
}

// Canonicalize validates the request at the API boundary and returns
// its canonical form: defaults filled, strategy specs canonicalized.
// Two requests describing the same campaign canonicalize identically —
// the property the cache key relies on.
func (r CampaignRequest) Canonicalize() (CampaignRequest, error) {
	c := r
	switch {
	case c.Program == "" && c.ProgenSeed == 0:
		return c, fmt.Errorf("one of program / progen_seed is required")
	case c.Program != "" && c.ProgenSeed != 0:
		return c, fmt.Errorf("program and progen_seed are mutually exclusive")
	case c.Program != "":
		if _, ok := bench.Get(c.Program); !ok {
			return c, fmt.Errorf("unknown program %q", c.Program)
		}
		if c.ProgenCount != 0 {
			return c, fmt.Errorf("progen_count requires progen_seed")
		}
	default: // progen workload
		if c.ProgenSeed < 0 {
			return c, fmt.Errorf("progen_seed must be positive")
		}
		if c.ProgenCount == 0 {
			c.ProgenCount = 1
		}
		if c.ProgenCount < 0 || c.ProgenCount > MaxProgenCount {
			return c, fmt.Errorf("progen_count %d out of range [1, %d]", c.ProgenCount, MaxProgenCount)
		}
	}
	if len(c.Tools) == 0 {
		c.Tools = []string{"rff"}
	}
	canon := make([]string, len(c.Tools))
	seen := make(map[string]bool, len(c.Tools))
	for i, spec := range c.Tools {
		cs, err := strategy.Canonical(spec)
		if err != nil {
			return c, fmt.Errorf("tools[%d]: %w", i, err)
		}
		if seen[cs] {
			return c, fmt.Errorf("tools[%d]: duplicate spec %q (canonical %q)", i, spec, cs)
		}
		seen[cs] = true
		canon[i] = cs
	}
	c.Tools = canon
	if c.Budget == 0 {
		c.Budget = 2000
	}
	if c.Budget < 0 || c.Budget > MaxBudget {
		return c, fmt.Errorf("budget %d out of range [1, %d]", c.Budget, MaxBudget)
	}
	if c.Trials == 0 {
		c.Trials = 1
	}
	if c.Trials < 0 || c.Trials > MaxTrials {
		return c, fmt.Errorf("trials %d out of range [1, %d]", c.Trials, MaxTrials)
	}
	if c.MaxSteps < 0 {
		return c, fmt.Errorf("max_steps must be non-negative")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("workers must be non-negative")
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return c, fmt.Errorf("shards %d out of range [0, %d]", c.Shards, MaxShards)
	}
	if c.BudgetPolicy == "" {
		if c.BudgetEpochs != 0 {
			return c, fmt.Errorf("budget_epochs requires budget_policy")
		}
	} else {
		if c.BudgetEpochs == 0 {
			c.BudgetEpochs = budget.DefaultEpochs
		}
		if c.BudgetEpochs > MaxBudgetEpochs {
			return c, fmt.Errorf("budget_epochs %d out of range [1, %d]", c.BudgetEpochs, MaxBudgetEpochs)
		}
		bc := budget.Config{Policy: c.BudgetPolicy, Epochs: c.BudgetEpochs}
		if err := bc.Validate(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// CacheKey derives the campaign's content-addressed cache key: the
// SumID of the canonical request JSON with execution hints (Workers)
// stripped, so the same campaign at a different parallelism reuses the
// stored result. Call on a canonicalized request.
func (r CampaignRequest) CacheKey() (store.ID, []byte, error) {
	k := r
	k.Workers = 0
	data, err := json.Marshal(k)
	if err != nil {
		return "", nil, fmt.Errorf("marshaling cache key: %w", err)
	}
	return store.SumID(data), data, nil
}

// Programs resolves the request's workload to concrete benchmark
// programs. Progen workloads regenerate deterministically from the
// seed, so an artifact fetched later always has a program to replay
// against.
func (r CampaignRequest) Programs() ([]bench.Program, error) {
	if r.Program != "" {
		p, ok := bench.Get(r.Program)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", r.Program)
		}
		return []bench.Program{p}, nil
	}
	g := progen.NewGenerator(r.ProgenSeed, 0)
	out := make([]bench.Program, 0, r.ProgenCount)
	for i := 0; i < r.ProgenCount; i++ {
		out = append(out, g.Next().Bench())
	}
	return out, nil
}
