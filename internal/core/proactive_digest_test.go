package core_test

// Proactive-decision oracle: a committed digest of the scheduling
// decisions and constraint outcomes of every execution of a short seeded
// fuzzing campaign on every bench program. The engine's trace digest
// (internal/exec/testdata/trace_digest.golden) runs plain POS only; this
// one pins what the Figure 2 machines choose under non-empty abstract
// schedules. Any change to the proactive scheduler's representation must
// reproduce it byte for byte.
//
// Regenerate (only for an intentional semantic change) with
//
//	go test ./internal/core -run TestProactiveDigest -update-proactive-digest

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/exec"
)

var updateProactiveDigest = flag.Bool("update-proactive-digest", false,
	"rewrite testdata/proactive_digest.golden")

const (
	proactiveDigestBudget   = 20
	proactiveDigestSeed     = 7
	proactiveDigestMaxSteps = 5000
)

// proactiveDigest runs one campaign on p and hashes, per execution, the
// decision sequence and the satisfied/rejected constraint counts.
func proactiveDigest(p bench.Program) string {
	h := sha256.New()
	var f *core.Fuzzer
	f = core.NewFuzzer(p.Name, p.Body, core.Options{
		Budget:   proactiveDigestBudget,
		Seed:     proactiveDigestSeed,
		MaxSteps: proactiveDigestMaxSteps,
		ResultObserver: func(res *exec.Result) {
			s := f.Scheduler()
			fmt.Fprintf(h, "%v sat=%d rej=%d\n", res.Trace.Decisions, s.SatisfiedCount(), s.RejectedCount())
		},
	})
	rep := f.Run()
	return fmt.Sprintf("execs=%d corpus=%d pairs=%d sigs=%d %x",
		rep.Executions, rep.CorpusSize, rep.UniquePairs, rep.UniqueSigs, h.Sum(nil)[:12])
}

func renderProactiveDigest() []byte {
	var b bytes.Buffer
	for _, p := range bench.All() {
		fmt.Fprintf(&b, "%s %s\n", p.Name, proactiveDigest(p))
	}
	return b.Bytes()
}

func TestProactiveDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign on every bench program")
	}
	path := filepath.Join("testdata", "proactive_digest.golden")
	got := renderProactiveDigest()
	if *updateProactiveDigest {
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
		t.Fatalf("%v (regenerate with -update-proactive-digest)", err)
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
