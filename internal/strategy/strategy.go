// Package strategy is the registry of concurrency testing strategies:
// it maps parameterized spec strings ("rff", "rff:nofb", "pos", "pct:3",
// "pct:7", "random", "qlearn", "period", "genmc") to factories that
// build configured campaign.Tool values from a uniform Config.
//
// Which scheduler runs, with which parameters, is itself the experiment
// — so strategies are data, not code: every layer that needs a tool
// (the campaign matrix runner, both CLIs, the perf harness, tests)
// resolves it here instead of constructing it by hand. That guarantees
// the telemetry sink, context/deadline semantics, and canonical naming
// are threaded identically for every strategy.
//
// Spec grammar:
//
//	spec  := name (":" arg)*
//	arg   := value | key "=" value
//	specs := spec ("," spec)*
//
// Names are case-insensitive; arguments are validated per strategy (see
// the registered usages). The canonical form of a spec — Canonical —
// makes defaults explicit where they parameterize the tool name
// ("pct" -> "pct:3") and strips them where they do not
// ("period:2" -> "period"), so equal tools have equal canonical specs.
package strategy

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/telemetry"
)

// Spec is a parsed strategy spec: a registry name plus raw arguments.
type Spec struct {
	// Name is the lower-cased registry key ("pct").
	Name string
	// Args are the ":"-separated arguments ("7", "alpha=0.3").
	Args []string
}

// String renders the spec back to its textual form.
func (s Spec) String() string {
	if len(s.Args) == 0 {
		return s.Name
	}
	return s.Name + ":" + strings.Join(s.Args, ":")
}

// ParseSpec parses one spec string. It validates only the grammar;
// name and argument validation happen at resolution.
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, fmt.Errorf("empty strategy spec")
	}
	parts := strings.Split(s, ":")
	sp := Spec{Name: strings.ToLower(strings.TrimSpace(parts[0]))}
	if sp.Name == "" {
		return Spec{}, fmt.Errorf("malformed strategy spec %q: missing name", s)
	}
	for _, a := range parts[1:] {
		a = strings.TrimSpace(a)
		if a == "" {
			return Spec{}, fmt.Errorf("malformed strategy spec %q: empty argument", s)
		}
		sp.Args = append(sp.Args, a)
	}
	return sp, nil
}

// ParseSpecs splits a comma-separated spec list ("pos,pct:7,rff") into
// its individual spec strings, dropping surrounding whitespace.
func ParseSpecs(s string) ([]string, error) {
	var out []string
	for _, one := range strings.Split(s, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			return nil, fmt.Errorf("empty entry in strategy spec list %q", s)
		}
		out = append(out, one)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty strategy spec list")
	}
	return out, nil
}

// Config is the uniform construction context handed to every strategy
// factory, and — via RunMatrix — the campaign-level settings of a
// matrix run. Factories consume what they need (today: the telemetry
// sink); the budget/deadline fields parameterize the trials every
// resolved tool runs under, so they live here rather than on any
// individual strategy.
type Config struct {
	// Telemetry, if non-nil, is threaded exactly once into every
	// resolved tool that supports per-execution instrumentation.
	Telemetry telemetry.Sink
	// Observer, if non-nil, is threaded into every resolved tool and
	// sees every counted execution's result (before its trace is
	// reclaimed), in every trial the tool runs. Every registered
	// strategy honours it. A matrix that needs one observer per trial
	// uses campaign.MatrixOptions.Observe instead.
	Observer campaign.ResultObserver
	// Trials per (tool, program) cell; deterministic tools run once.
	Trials int
	// Budget is the schedule budget per trial.
	Budget int
	// MaxSteps bounds each execution (0 = engine default).
	MaxSteps int
	// BaseSeed seeds the campaign's per-cell seed stream
	// (campaign.TrialSeed).
	BaseSeed int64
	// Workers bounds concurrent trials (0 = GOMAXPROCS).
	Workers int
	// TrialTimeout, if positive, arms a per-trial wall-clock deadline;
	// every strategy stops a timed-out trial within one scheduling step
	// and records a censored, errored outcome.
	TrialTimeout time.Duration
	// Progress, if non-nil, is called after each completed cell of an
	// epoch wave (campaign.MatrixOptions.Progress): per trial under
	// fixed budgets, restarting every epoch under a Budgeter.
	Progress func(done, total int)
	// Shards, when >= 1, runs RFF trials on the sharded runner with
	// that many worker shards (campaign.RFFTool.Shards).
	// Unlike Workers this is not an execution hint: the sharded runner
	// is a distinct deterministic algorithm, so Shards changes results
	// and participates in cache identity. Other strategies ignore it.
	Shards int
	// Budgeter, when non-nil, runs the matrix under adaptive budget
	// scheduling (internal/budget): the total execution pool is
	// reallocated across (tool, program) cells at epoch barriers by the
	// named policy. Nil runs fixed per-trial budgets. Like Shards it
	// changes results and participates in cache identity. RunMatrix
	// validates it; the two are mutually exclusive (the sharded
	// runner's observer sees only failures, which would starve the
	// reward signal).
	Budgeter *budget.Config
}

// Factory builds a configured tool from a normalized spec.
type Factory func(spec Spec, cfg Config) (campaign.Tool, error)

// Entry is one registered strategy.
type Entry struct {
	// Name is the registry key ("pct").
	Name string
	// Usage is the spec grammar shown in docs and errors ("pct:<depth>").
	Usage string
	// Summary is a one-line description.
	Summary string
	// Normalize validates the spec's arguments and rewrites them to
	// canonical form (fill defaults that parameterize the tool name,
	// strip ones that do not). Nil accepts only argument-less specs.
	Normalize func(Spec) (Spec, error)
	// Factory builds the tool from a normalized spec.
	Factory Factory
}

var (
	registry = map[string]Entry{}
	// aliases maps an alternative spelling to its canonical spec string.
	aliases = map[string]string{}
)

// Register adds a strategy to the registry. It panics on a duplicate or
// invalid name — registration is an init-time programming error, not a
// runtime condition.
func Register(e Entry) {
	if e.Name == "" || e.Name != strings.ToLower(e.Name) || strings.ContainsAny(e.Name, ":,= \t") {
		panic(fmt.Sprintf("strategy.Register: invalid name %q", e.Name))
	}
	if e.Factory == nil {
		panic(fmt.Sprintf("strategy.Register: %q has no factory", e.Name))
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("strategy.Register: duplicate name %q", e.Name))
	}
	if _, dup := aliases[e.Name]; dup {
		panic(fmt.Sprintf("strategy.Register: name %q shadows an alias", e.Name))
	}
	registry[e.Name] = e
}

// RegisterAlias maps an alternative spelling ("rff-nofb") to a
// canonical spec ("rff:nofb").
func RegisterAlias(name, target string) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("strategy.RegisterAlias: alias %q shadows a registered name", name))
	}
	if _, dup := aliases[name]; dup {
		panic(fmt.Sprintf("strategy.RegisterAlias: duplicate alias %q", name))
	}
	aliases[name] = target
}

// Names returns the registered strategy names, sorted. Aliases are not
// included — they resolve to these.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Entries returns the registered strategies sorted by name, for help
// listings.
func Entries() []Entry {
	out := make([]Entry, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// normalize parses a spec string, resolves aliases, and validates +
// canonicalizes the arguments.
func normalize(specStr string) (Spec, error) {
	sp, err := ParseSpec(specStr)
	if err != nil {
		return Spec{}, err
	}
	if target, ok := aliases[sp.Name]; ok {
		if len(sp.Args) > 0 {
			return Spec{}, fmt.Errorf("strategy spec %q: alias %q takes no arguments (use %q)",
				specStr, sp.Name, target)
		}
		if sp, err = ParseSpec(target); err != nil {
			return Spec{}, fmt.Errorf("alias %q has malformed target: %w", specStr, err)
		}
	}
	e, ok := registry[sp.Name]
	if !ok {
		return Spec{}, fmt.Errorf("unknown strategy %q (registered: %s)",
			specStr, strings.Join(Names(), ", "))
	}
	if e.Normalize == nil {
		if len(sp.Args) > 0 {
			return Spec{}, fmt.Errorf("strategy %q takes no arguments (got %q)", sp.Name, specStr)
		}
		return sp, nil
	}
	nsp, err := e.Normalize(sp)
	if err != nil {
		return Spec{}, fmt.Errorf("strategy spec %q: %w", specStr, err)
	}
	return nsp, nil
}

// Canonical returns the canonical form of a spec string: aliases
// resolved, arguments validated, defaults made explicit or stripped per
// strategy. Canonical is idempotent, and two specs resolving to the
// same configured tool share one canonical form.
func Canonical(specStr string) (string, error) {
	sp, err := normalize(specStr)
	if err != nil {
		return "", err
	}
	return sp.String(), nil
}

// Resolve builds the configured tool a spec names, threading cfg
// (today: the telemetry sink) into it exactly once.
func Resolve(specStr string, cfg Config) (campaign.Tool, error) {
	sp, err := normalize(specStr)
	if err != nil {
		return nil, err
	}
	return registry[sp.Name].Factory(sp, cfg)
}

// MustResolve is Resolve for static specs in tests and examples; it
// panics on error.
func MustResolve(specStr string, cfg Config) campaign.Tool {
	t, err := Resolve(specStr, cfg)
	if err != nil {
		panic("strategy.MustResolve: " + err.Error())
	}
	return t
}

// ResolveAll resolves a list of spec strings in order.
func ResolveAll(specs []string, cfg Config) ([]campaign.Tool, error) {
	tools := make([]campaign.Tool, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		t, err := Resolve(s, cfg)
		if err != nil {
			return nil, err
		}
		if seen[t.Name()] {
			return nil, fmt.Errorf("duplicate strategy %q in spec list (canonical name %s)", s, t.Name())
		}
		seen[t.Name()] = true
		tools = append(tools, t)
	}
	return tools, nil
}

// DefaultSpecs is the evaluation's default tool lineup in table order —
// the panel the paper compares (PCT-3, PERIOD, RFF, POS, Q-Learning-RF,
// GenMC).
func DefaultSpecs() []string {
	return []string{"pct:3", "period", "rff", "pos", "qlearn", "genmc"}
}

// RunMatrix resolves the specs and executes the evaluation matrix under
// ctx on campaign.RunMatrixContext, mapping Config onto the matrix
// options. It is the one construction path from spec strings to matrix
// results: the sink, seeds, and deadlines are threaded identically for
// every strategy.
func RunMatrix(ctx context.Context, specs []string, programs []bench.Program, cfg Config) (*campaign.MatrixResult, error) {
	tools, err := ResolveAll(specs, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Budgeter != nil {
		if err := cfg.Budgeter.Validate(); err != nil {
			return nil, err
		}
		if cfg.Shards >= 1 {
			return nil, fmt.Errorf("budget policy %q cannot be combined with sharded trials: the shard runner's observer sees only failing executions, so budget cells would earn no coverage reward", cfg.Budgeter.Policy)
		}
	}
	return campaign.RunMatrixContext(ctx, tools, programs, campaign.MatrixOptions{
		Trials:       cfg.Trials,
		Budget:       cfg.Budget,
		MaxSteps:     cfg.MaxSteps,
		BaseSeed:     cfg.BaseSeed,
		Workers:      cfg.Workers,
		TrialTimeout: cfg.TrialTimeout,
		Progress:     cfg.Progress,
		Telemetry:    cfg.Telemetry,
		Budgeter:     cfg.Budgeter,
	}), nil
}
