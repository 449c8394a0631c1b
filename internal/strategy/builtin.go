package strategy

import (
	"fmt"
	"strconv"
	"strings"

	"rff/internal/campaign"
	"rff/internal/exec"
	"rff/internal/qlearn"
	"rff/internal/sched"
	"rff/internal/systematic"
)

// The built-in lineup: the paper's evaluation panel plus the naive
// random baseline. Everything constructing a campaign.Tool lives here —
// the grep-lint CI step keeps it that way.
func init() {
	Register(Entry{
		Name:    "rff",
		Usage:   "rff[:nofb]",
		Summary: "greybox reads-from fuzzer; arg nofb ablates the feedback (RQ3)",
		Normalize: func(sp Spec) (Spec, error) {
			switch {
			case len(sp.Args) == 0:
				return sp, nil
			case len(sp.Args) == 1 && sp.Args[0] == "nofb":
				return sp, nil
			}
			return Spec{}, fmt.Errorf("rff takes at most the single argument \"nofb\"")
		},
		Factory: func(sp Spec, cfg Config) (campaign.Tool, error) {
			return campaign.RFFTool{
				NoFeedback: len(sp.Args) == 1,
				Telemetry:  cfg.Telemetry,
				Shards:     cfg.Shards,
			}, nil
		},
	})

	Register(Entry{
		Name:    "pos",
		Usage:   "pos",
		Summary: "Partial Order Sampling baseline (Yuan et al., CAV'18)",
		Factory: func(_ Spec, cfg Config) (campaign.Tool, error) {
			return campaign.SchedulerTool{
				ToolName:  "POS",
				Factory:   func() exec.Scheduler { return sched.NewPOS() },
				Telemetry: cfg.Telemetry,
			}, nil
		},
	})

	Register(Entry{
		Name:    "pct",
		Usage:   "pct:<depth>",
		Summary: "PCT at the given bug depth, default 3 (Burckhardt et al., ASPLOS'10)",
		Normalize: func(sp Spec) (Spec, error) {
			depth := 3
			switch len(sp.Args) {
			case 0:
			case 1:
				d, err := strconv.Atoi(sp.Args[0])
				if err != nil {
					return Spec{}, fmt.Errorf("pct depth must be a positive integer, got %q", sp.Args[0])
				}
				if d < 1 {
					return Spec{}, fmt.Errorf("pct depth must be >= 1, got %d", d)
				}
				depth = d
			default:
				return Spec{}, fmt.Errorf("pct takes a single depth argument")
			}
			// The depth parameterizes the tool name, so the canonical
			// spec always spells it out.
			return Spec{Name: "pct", Args: []string{strconv.Itoa(depth)}}, nil
		},
		Factory: func(sp Spec, cfg Config) (campaign.Tool, error) {
			depth, _ := strconv.Atoi(sp.Args[0])
			return campaign.SchedulerTool{
				ToolName:  fmt.Sprintf("PCT%d", depth),
				Factory:   func() exec.Scheduler { return sched.NewPCT(depth) },
				Telemetry: cfg.Telemetry,
			}, nil
		},
	})

	Register(Entry{
		Name:    "random",
		Usage:   "random",
		Summary: "uniform random walk over enabled events",
		Factory: func(_ Spec, cfg Config) (campaign.Tool, error) {
			return campaign.SchedulerTool{
				ToolName:  "Random",
				Factory:   func() exec.Scheduler { return sched.NewRandom() },
				Telemetry: cfg.Telemetry,
			}, nil
		},
	})

	Register(Entry{
		Name:      "qlearn",
		Usage:     "qlearn[:alpha=A][:gamma=G][:epsilon=E][:reward=R]",
		Summary:   "Q-Learning-RF baseline of RQ4; hyperparameters default to the paper's",
		Normalize: normalizeQLearn,
		Factory: func(sp Spec, cfg Config) (campaign.Tool, error) {
			qcfg, err := qlearnConfig(sp)
			if err != nil {
				return nil, err
			}
			name := "QLearning-RF"
			if len(sp.Args) > 0 {
				name += "(" + strings.Join(sp.Args, ",") + ")"
			}
			return campaign.SchedulerTool{
				ToolName:  name,
				Factory:   func() exec.Scheduler { return qlearn.New(qcfg) },
				Telemetry: cfg.Telemetry,
			}, nil
		},
	})

	Register(Entry{
		Name:    "period",
		Usage:   "period[:<bound>]",
		Summary: "preemption-bounded systematic stand-in for PERIOD, default bound 2",
		Normalize: func(sp Spec) (Spec, error) {
			switch len(sp.Args) {
			case 0:
				return sp, nil
			case 1:
				b, err := strconv.Atoi(sp.Args[0])
				if err != nil || b < 1 {
					return Spec{}, fmt.Errorf("period bound must be a positive integer, got %q", sp.Args[0])
				}
				if b == 2 {
					// The default bound does not parameterize the name;
					// strip it so "period:2" and "period" are one tool.
					return Spec{Name: "period"}, nil
				}
				return sp, nil
			default:
				return Spec{}, fmt.Errorf("period takes a single bound argument")
			}
		},
		Factory: func(sp Spec, cfg Config) (campaign.Tool, error) {
			bound := 2
			name := "PERIOD*"
			if len(sp.Args) == 1 {
				bound, _ = strconv.Atoi(sp.Args[0])
				name = fmt.Sprintf("PERIOD*(b=%d)", bound)
			}
			return campaign.SchedulerTool{
				ToolName:   name,
				Factory:    func() exec.Scheduler { return systematic.NewICB(bound) },
				Systematic: true,
				Telemetry:  cfg.Telemetry,
			}, nil
		},
	})

	Register(Entry{
		Name:    "genmc",
		Usage:   "genmc",
		Summary: "exhaustive-enumeration stand-in for the GenMC model checker",
		Factory: func(_ Spec, cfg Config) (campaign.Tool, error) {
			return campaign.SchedulerTool{
				ToolName:   "GenMC*",
				Factory:    systematic.NewDFS,
				Systematic: true,
				Telemetry:  cfg.Telemetry,
			}, nil
		},
	})

	// "rff-nofb" is the documented hyphenated form of "rff:nofb".
	RegisterAlias("rff-nofb", "rff:nofb")
}

// qlearnKeys is the canonical hyperparameter order of the qlearn spec.
var qlearnKeys = []string{"alpha", "gamma", "epsilon", "reward"}

// normalizeQLearn validates key=value hyperparameter arguments and
// rewrites them into canonical order with canonically formatted values.
func normalizeQLearn(sp Spec) (Spec, error) {
	vals := map[string]float64{}
	for _, a := range sp.Args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return Spec{}, fmt.Errorf("qlearn argument %q is not key=value", a)
		}
		if k == "eps" {
			k = "epsilon"
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("qlearn %s must be a number, got %q", k, v)
		}
		switch k {
		case "alpha", "gamma":
			if f <= 0 || f > 1 {
				return Spec{}, fmt.Errorf("qlearn %s must be in (0, 1], got %v", k, f)
			}
		case "epsilon":
			if f <= 0 || f > 1 {
				return Spec{}, fmt.Errorf("qlearn epsilon must be in (0, 1], got %v", f)
			}
		case "reward":
			if f == 0 {
				return Spec{}, fmt.Errorf("qlearn reward must be non-zero")
			}
		default:
			return Spec{}, fmt.Errorf("unknown qlearn parameter %q (known: %s)", k, strings.Join(qlearnKeys, ", "))
		}
		if _, dup := vals[k]; dup {
			return Spec{}, fmt.Errorf("duplicate qlearn parameter %q", k)
		}
		vals[k] = f
	}
	out := Spec{Name: "qlearn"}
	for _, k := range qlearnKeys {
		if f, ok := vals[k]; ok {
			out.Args = append(out.Args, k+"="+strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	return out, nil
}

// qlearnConfig builds the learner config from a normalized spec.
func qlearnConfig(sp Spec) (qlearn.Config, error) {
	var cfg qlearn.Config
	for _, a := range sp.Args {
		k, v, _ := strings.Cut(a, "=")
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, fmt.Errorf("qlearn %s must be a number, got %q", k, v)
		}
		switch k {
		case "alpha":
			cfg.Alpha = f
		case "gamma":
			cfg.Gamma = f
		case "epsilon":
			cfg.Epsilon = f
		case "reward":
			cfg.Reward = f
		}
	}
	return cfg, nil
}
