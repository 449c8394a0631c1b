package exec_test

// Trace-identity oracle: a committed digest of the events, decisions and
// failure of every bench program and of generated programs from each
// progen grammar, each run under seeded POS schedulers. Any change to the
// engine's handoff machinery must reproduce it byte for byte; a diff
// means the engine changed what it executes, not just how fast.
//
// Regenerate (only for an intentional semantic change) with
//
//	go test ./internal/exec -run TestTraceDigest -update-digest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rff/internal/bench"
	"rff/internal/exec"
	"rff/internal/progen"
	"rff/internal/sched"
)

var updateDigest = flag.Bool("update-digest", false, "rewrite testdata/trace_digest.golden")

const (
	digestMaxSteps    = 5000
	digestProgenCount = 6
)

var digestSeeds = []int64{1, 2, 3}

// traceDigest hashes every observable field of one execution.
func traceDigest(res *exec.Result) string {
	h := sha256.New()
	for _, ev := range res.Trace.Events {
		fmt.Fprintf(h, "%d|%d|%d|%d|%s|%s|%d|%d|%t|%t|%d\n",
			ev.ID, ev.Thread, ev.Op, ev.Var, ev.VarStr, ev.Loc, ev.Val, ev.RF, ev.Atomic, ev.Ok, ev.Target)
	}
	fmt.Fprintf(h, "decisions %v\n", res.Trace.Decisions)
	if f := res.Failure; f != nil {
		fmt.Fprintf(h, "failure %d|%s|%d|%s\n", f.Kind, f.Msg, f.Thread, f.Loc)
	}
	fmt.Fprintf(h, "truncated %t cancelled %t\n", res.Truncated, res.Cancelled)
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// digestPrograms lists the oracle's subjects: every registered bench
// program, then digestProgenCount programs per (grammar, seed).
func digestPrograms() []bench.Program {
	progs := bench.All()
	for _, g := range []string{"core", "chan", "sync", "all"} {
		feats, err := progen.ParseGrammar(g)
		if err != nil {
			panic(err)
		}
		for _, seed := range digestSeeds {
			gen := progen.NewGenerator(seed, feats)
			for i := 0; i < digestProgenCount; i++ {
				progs = append(progs, gen.Next().Bench())
			}
		}
	}
	return progs
}

func renderDigest() []byte {
	var b bytes.Buffer
	for _, p := range digestPrograms() {
		for _, seed := range digestSeeds {
			res := exec.Run(p.Name, p.Body, exec.Config{
				Scheduler: sched.NewPOS(), Seed: seed, MaxSteps: digestMaxSteps,
			})
			kind := "ok"
			if res.Failure != nil {
				kind = fmt.Sprintf("fail%d", res.Failure.Kind)
			} else if res.Truncated {
				kind = "truncated"
			}
			fmt.Fprintf(&b, "%s seed=%d steps=%d %s %s\n", p.Name, seed, res.Steps(), kind, traceDigest(res))
		}
	}
	return b.Bytes()
}

func TestTraceDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every bench program three times")
	}
	path := filepath.Join("testdata", "trace_digest.golden")
	got := renderDigest()
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-digest)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Errorf("digest has %d lines, want %d", len(gl), len(wl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
}

// TestCarrierLeakProperty extends the carrier leak table to every digest
// subject: after each execution, whatever its outcome, the process is back
// to its baseline goroutines plus the idle carriers.
func TestCarrierLeakProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every bench program three times")
	}
	progs := digestPrograms()
	baseline := exec.SettledBaseline()
	for _, p := range progs {
		for _, seed := range digestSeeds {
			exec.Run(p.Name, p.Body, exec.Config{
				Scheduler: sched.NewPOS(), Seed: seed, MaxSteps: digestMaxSteps,
			})
			want := baseline + exec.IdleCarriers()
			if n := exec.SettledGoroutines(want); n != want {
				t.Fatalf("%s seed %d: %d goroutines, want baseline %d + %d idle carriers",
					p.Name, seed, n, baseline, exec.IdleCarriers())
			}
		}
	}
}
