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

	"rff/internal/bench"
	"rff/internal/campaign"
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
// factory, and the configuration of a RunMatrix run: one type,
// campaign.Config, whose doc says which fields configure the resolved
// tools (Telemetry, Observer, Shards, read here by Resolve) and which
// configure the matrix runner.
type Config = campaign.Config

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

var registry = map[string]Entry{}

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
	registry[e.Name] = e
}

// Names returns the registered strategy names, sorted.
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

// normalize parses a spec string and validates + canonicalizes the
// arguments.
func normalize(specStr string) (Spec, error) {
	sp, err := ParseSpec(specStr)
	if err != nil {
		return Spec{}, err
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

// Canonical returns the canonical form of a spec string: arguments
// validated, defaults made explicit or stripped per strategy.
// Canonical is idempotent, and two specs resolving to the same
// configured tool share one canonical form.
func Canonical(specStr string) (string, error) {
	sp, err := normalize(specStr)
	if err != nil {
		return "", err
	}
	return sp.String(), nil
}

// Resolve builds the configured tool a spec names, threading cfg (the
// telemetry sink, the shard count and the observer) into it exactly
// once.
func Resolve(specStr string, cfg Config) (campaign.Tool, error) {
	sp, err := normalize(specStr)
	if err != nil {
		return nil, err
	}
	t, err := registry[sp.Name].Factory(sp, cfg)
	if err != nil || cfg.Observer == nil {
		return t, err
	}
	ot, ok := t.(campaign.ObservableTool)
	if !ok {
		return nil, fmt.Errorf("strategy %s cannot take an observer", sp)
	}
	return ot.WithObserver(cfg.Observer), nil
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

// RunMatrix resolves the specs with cfg and executes the evaluation
// matrix under ctx on campaign.RunMatrixContext with the same cfg. It
// is the one construction path from spec strings to matrix results:
// the sink, observer, seeds, and deadlines are threaded identically for
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
	}
	return campaign.RunMatrixContext(ctx, tools, programs, cfg), nil
}
