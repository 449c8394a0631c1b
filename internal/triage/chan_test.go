package triage_test

import (
	"strings"
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/progen"
	"rff/internal/triage"
)

// chanArtifact scans the chan-grammar progen stream for a program whose
// fuzzing campaign crashes with the wanted failure kind, and returns the
// artifact plus the generated program's name. The artifact's program
// name round-trips through progen.FromName, so triage can regenerate
// the body during minimization and regression replay.
func chanArtifact(t *testing.T, want exec.FailureKind) (*core.Artifact, string) {
	t.Helper()
	feats, err := progen.ParseGrammar("chan")
	if err != nil {
		t.Fatal(err)
	}
	gen := progen.NewGenerator(5, feats)
	for i := 0; i < 80; i++ {
		p := gen.Next()
		rep := core.NewFuzzer(p.Name, p.Body(), core.Options{
			Budget: 300, Seed: 1, StopAtFirstBug: true,
		}).Run()
		if !rep.FoundBug() || rep.Failures[0].Failure.Kind != want {
			continue
		}
		return core.NewArtifact(p.Name, rep.Failures[0]), p.Name
	}
	t.Fatalf("no chan-grammar program crashing with %v in 80 candidates", want)
	return nil, ""
}

// TestChanFailuresTriageEndToEnd is the acceptance check for the channel
// failure kinds: a progen-generated send-on-closed crash and a channel
// deadlock each minimize, land in distinct clusters with channel-aware
// signatures, and replay from the saved regression corpus.
func TestChanFailuresTriageEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("progen campaign scan is not -short friendly")
	}
	sendClosed, scName := chanArtifact(t, exec.FailSendClosed)
	deadlock, dlName := chanArtifact(t, exec.FailDeadlock)

	tr := triage.New(triage.Config{})
	scOut, err := tr.Add(sendClosed, "rff")
	if err != nil {
		t.Fatalf("triaging send-on-closed artifact: %v", err)
	}
	dlOut, err := tr.Add(deadlock, "rff")
	if err != nil {
		t.Fatalf("triaging channel-deadlock artifact: %v", err)
	}
	if scOut.ClusterID == dlOut.ClusterID {
		t.Fatal("send-on-closed and deadlock landed in one cluster")
	}

	sc := tr.Cluster(scOut.ClusterID)
	if sc.Signature.Kind != exec.FailSendClosed.String() {
		t.Fatalf("send-on-closed cluster kind = %q", sc.Signature.Kind)
	}
	if sc.Signature.Program != scName || len(sc.Signature.Locs) != 1 {
		t.Fatalf("send-on-closed signature not anchored to the failing send: %+v", sc.Signature)
	}
	if sc.MinimalSwitches > sc.OriginalSwitches {
		t.Fatalf("minimization grew the schedule: %+v", sc)
	}

	dl := tr.Cluster(dlOut.ClusterID)
	if dl.Signature.Kind != exec.FailDeadlock.String() || dl.Signature.Program != dlName {
		t.Fatalf("deadlock signature wrong: %+v", dl.Signature)
	}
	// The normalized location set must name the contended channel ops
	// ("send(ch0)", "recv(ch1)", "select(ch0,ch1)", "wgwait(wg)", ...),
	// with thread ids and source locations stripped.
	chanOps := 0
	for _, loc := range dl.Signature.Locs {
		if strings.ContainsAny(loc, "@") {
			t.Fatalf("deadlock loc %q kept a source location", loc)
		}
		for _, op := range []string{"send(", "recv(", "select(", "wgwait("} {
			if strings.HasPrefix(loc, op) {
				chanOps++
			}
		}
	}
	if chanOps == 0 {
		t.Fatalf("deadlock signature has no channel ops: %v (msg %q)",
			dl.Signature.Locs, deadlock.FailureMsg)
	}

	// Both clusters replay from a saved corpus: the regression gate holds
	// for the channel vocabulary.
	cdir := t.TempDir()
	if err := triage.SaveCorpus(tr, cdir); err != nil {
		t.Fatal(err)
	}
	bad, total, err := triage.Regress(cdir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(bad) != 0 {
		t.Fatalf("regress: total=%d bad=%v", total, bad)
	}
}
