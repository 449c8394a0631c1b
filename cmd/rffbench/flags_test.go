package main

import (
	"errors"
	"flag"
	"reflect"
	"testing"
)

// wantFlags pins every subcommand's flags and their defaults, so a change
// to the shared flag block cannot silently add, drop or move one.
var wantFlags = map[string]map[string]string{
	"table-b": {
		"budget":        "2000",
		"budget-epochs": "8",
		"budget-policy": "",
		"cpuprofile":    "",
		"json":          "",
		"maxsteps":      "5000",
		"memprofile":    "",
		"metrics":       "",
		"progs":         "",
		"q":             "false",
		"seed":          "1",
		"suite":         "",
		"tools":         "pct:3,period,rff,pos,qlearn,genmc",
		"trials":        "5",
		"workers":       "0",
	},
	"fig4": {
		"budget":        "2000",
		"budget-epochs": "8",
		"budget-policy": "",
		"cpuprofile":    "",
		"json":          "",
		"maxsteps":      "5000",
		"memprofile":    "",
		"metrics":       "",
		"progs":         "",
		"q":             "false",
		"seed":          "1",
		"suite":         "",
		"tools":         "pct:3,period,rff,pos,qlearn,genmc",
		"trials":        "5",
		"workers":       "0",
	},
	"rq1": {
		"budget":        "2000",
		"budget-epochs": "8",
		"budget-policy": "",
		"cpuprofile":    "",
		"json":          "",
		"maxsteps":      "5000",
		"memprofile":    "",
		"metrics":       "",
		"progs":         "",
		"q":             "false",
		"seed":          "1",
		"suite":         "",
		"tools":         "pct:3,period,rff,pos,qlearn,genmc",
		"trials":        "5",
		"workers":       "0",
	},
	"all": {
		"budget":        "2000",
		"budget-epochs": "8",
		"budget-policy": "",
		"cpuprofile":    "",
		"json":          "",
		"maxsteps":      "5000",
		"memprofile":    "",
		"metrics":       "",
		"progs":         "",
		"q":             "false",
		"seed":          "1",
		"suite":         "",
		"tools":         "pct:3,period,rff,pos,qlearn,genmc",
		"trials":        "5",
		"workers":       "0",
	},
	"rq2": {
		"budget":        "2000",
		"budget-epochs": "8",
		"budget-policy": "",
		"cpuprofile":    "",
		"json":          "",
		"maxsteps":      "5000",
		"memprofile":    "",
		"metrics":       "",
		"progs":         "",
		"q":             "false",
		"seed":          "1",
		"suite":         "",
		"trials":        "5",
		"workers":       "0",
	},
	"rq4": {
		"budget":        "2000",
		"budget-epochs": "8",
		"budget-policy": "",
		"cpuprofile":    "",
		"json":          "",
		"maxsteps":      "5000",
		"memprofile":    "",
		"metrics":       "",
		"progs":         "",
		"q":             "false",
		"seed":          "1",
		"suite":         "",
		"trials":        "5",
		"workers":       "0",
	},
	"fig5": {
		"bars":       "40",
		"cpuprofile": "",
		"csv":        "false",
		"maxsteps":   "5000",
		"memprofile": "",
		"n":          "10000",
		"nofeedback": "false",
		"prog":       "SafeStack",
		"seed":       "1",
		"workers":    "0",
	},
	"conformance": {
		"budget":        "300",
		"budget-epochs": "8",
		"budget-policy": "",
		"cpuprofile":    "",
		"grammar":       "core",
		"gt-budget":     "60000",
		"maxsteps":      "4096",
		"memprofile":    "",
		"metrics":       "",
		"out":           "",
		"programs":      "50",
		"q":             "false",
		"seed":          "1",
		"tools":         "genmc,pct,period,pos,qlearn,random,rff",
		"trials":        "1",
		"workers":       "1",
	},
	"sched-eval": {
		"alpha":         "0.05",
		"assert-ttfb":   "false",
		"budget":        "300",
		"budget-epochs": "8",
		"cpuprofile":    "",
		"grammar":       "core",
		"gt-budget":     "60000",
		"maxsteps":      "4096",
		"memprofile":    "",
		"metrics":       "",
		"out":           "",
		"policies":      "uniform,eps-greedy,fox,ucb",
		"programs":      "12",
		"q":             "false",
		"seeds":         "1",
		"tools":         "genmc,pct,period,pos,qlearn,random,rff",
		"trials":        "1",
		"workers":       "1",
	},
	"classes": {
		"budget":     "500000",
		"cpuprofile": "",
		"memprofile": "",
		"prog":       "Extras/reorder_2",
	},
	"triage": {
		"budget":          "0",
		"campaign-budget": "300",
		"cpuprofile":      "",
		"in":              "",
		"maxsteps":        "0",
		"memprofile":      "",
		"out":             "triage-corpus",
		"progen-count":    "8",
		"progen-grammar":  "core",
		"progen-seed":     "0",
		"report":          "",
		"seed":            "1",
		"store":           "",
		"tool":            "",
		"tools":           "rff",
		"trials":          "1",
	},
	"shards": {
		"assert-speedup": "0",
		"budget":         "4000",
		"cpuprofile":     "",
		"maxsteps":       "5000",
		"memprofile":     "",
		"prog":           "CS/twostage_20",
		"seed":           "1",
		"shards":         "1,2,4",
	},
}

func TestFlagDefaults(t *testing.T) {
	if len(subcommands) != len(wantFlags) {
		t.Errorf("%d subcommands, %d pinned", len(subcommands), len(wantFlags))
	}
	for name, want := range wantFlags {
		fs, _, err := command(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s flags:\n got  %v\n want %v", name, got, want)
		}
	}
}

// TestBadFlagsAreUsageErrors checks that every malformed flag value is
// rejected as a usage error (exit status 2) before any work starts.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nosuch"},
		{"table-b", "-nosuch"},
		{"table-b", "-tools", "nosuch"},
		{"conformance", "-tools", "rff,,pos"},
		{"triage", "-progen-seed", "1", "-tools", "pct:x"},
		{"table-b", "-budget-policy", "nosuch"},
		{"conformance", "-budget-policy", "nosuch"},
		{"table-b", "-budget-epochs", "3"},
		{"conformance", "-grammar", "nosuch"},
		{"sched-eval", "-grammar", "nosuch"},
		{"triage", "-progen-seed", "1", "-progen-grammar", "nosuch"},
		{"sched-eval", "-seeds", "1,x"},
		{"sched-eval", "-policies", "uniform,nosuch"},
		{"shards", "-shards", "1,0"},
		{"shards", "-shards", "1,two"},
		{"table-b", "-progs", "CS/account,CS/nosuch"},
		{"rq2", "-suite", "Nope"},
		{"fig5", "-prog", "CS/nosuch"},
		{"classes", "-prog", "nosuch"},
		{"shards", "-prog", "nosuch"},
		{"triage"},
		{"triage", "-in", "dir", "-progen-seed", "1"},
		{"table-b", "-budget", "0"},
		{"table-b", "-trials", "0"},
		{"conformance", "-budget", "0"},
		{"conformance", "-programs", "0"},
		{"conformance", "-trials", "0"},
		{"sched-eval", "-budget", "0"},
		{"sched-eval", "-programs", "0"},
		{"sched-eval", "-trials", "-1"},
		{"triage", "-progen-seed", "1", "-campaign-budget", "0"},
		{"shards", "-budget", "0"},
		{"fig5", "-n", "0"},
		{"classes", "-budget", "0"},
	} {
		err := rffbench(args)
		if !errors.As(err, new(usageError)) {
			t.Errorf("rffbench %q: got %v, want a usage error", args, err)
		}
	}
}

func TestExitCode(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{errReported, 1},
		{usageError{errReported}, 2},
	} {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestPrograms(t *testing.T) {
	ps, err := programs("reorder_10, CS/account", "")
	if err != nil || len(ps) != 2 || ps[0].Name != "CS/reorder_10" || ps[1].Name != "CS/account" {
		t.Errorf("programs by name = %v, %v", ps, err)
	}
	ps, err = programs("", "Chan")
	if err != nil || len(ps) == 0 {
		t.Fatalf("programs by suite = %v, %v", ps, err)
	}
	for _, p := range ps {
		if p.Suite != "Chan" {
			t.Errorf("suite Chan selected %s", p.Name)
		}
	}
	ps, err = programs("", "")
	if err != nil || len(ps) == 0 {
		t.Fatalf("default programs = %v, %v", ps, err)
	}
	for _, p := range ps {
		if p.Suite == "Extras" {
			t.Errorf("default matrix includes opt-in %s", p.Name)
		}
	}
}
