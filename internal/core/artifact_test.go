package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
)

func TestArtifactRoundTrip(t *testing.T) {
	rep := core.NewFuzzer("reorder_5", reorder(5), core.Options{
		Budget: 500, Seed: 21, StopAtFirstBug: true,
	}).Run()
	if !rep.FoundBug() {
		t.Fatal("no failure to serialize")
	}
	path := filepath.Join(t.TempDir(), "crash-000.json")
	if err := core.NewArtifact(rep.Program, rep.Failures[0]).Save(path); err != nil {
		t.Fatal(err)
	}

	a, err := core.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Program != "reorder_5" || a.Execution != rep.Failures[0].Execution {
		t.Fatalf("metadata mismatch: %+v", a)
	}
	sched2, err := a.AbstractSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if sched2.Key() != rep.Failures[0].Schedule.Key() {
		t.Fatalf("schedule round-trip mismatch:\n%v\n%v", sched2, rep.Failures[0].Schedule)
	}

	// The deserialized decisions replay to the same failure.
	rr := exec.Run("replay", reorder(5), exec.Config{Scheduler: sched.NewReplay(a.ThreadOrder())})
	if rr.Failure == nil || rr.Failure.Kind.String() != a.FailureKind {
		t.Fatalf("replay mismatch: %v vs %s", rr.Failure, a.FailureKind)
	}
}

func TestArtifactNegatedConstraints(t *testing.T) {
	fr := core.FailureRecord{
		Schedule: core.NewSchedule(core.Constraint{
			Write:   exec.AbstractEvent{Op: exec.OpVarInit, Var: "x", Loc: "a.go:1"},
			Read:    exec.AbstractEvent{Op: exec.OpLock, Var: "x", Loc: "a.go:2"},
			Negated: true,
		}),
		Seed:      7,
		Execution: 3,
		Failure:   &exec.Failure{Kind: exec.FailDeadlock, Msg: "stuck"},
		Decisions: []exec.ThreadID{1, 2, 1},
	}
	a := core.NewArtifact("p", fr)
	path := filepath.Join(t.TempDir(), "crash.json")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := core.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := b.AbstractSchedule()
	if err != nil {
		t.Fatal(err)
	}
	cs := s.Constraints()
	if len(cs) != 1 || !cs[0].Negated || cs[0].Read.Op != exec.OpLock || cs[0].Write.Op != exec.OpVarInit {
		t.Fatalf("negated lock constraint mangled: %v", cs)
	}
	if got := b.ThreadOrder(); len(got) != 3 || got[1] != 2 {
		t.Fatalf("decisions mangled: %v", got)
	}
}

func TestLoadArtifactErrors(t *testing.T) {
	if _, err := core.LoadArtifact(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestArtifactSaveLoadSaveByteIdentical: the serialized form is a fixed
// point — saving a loaded artifact reproduces the original file byte
// for byte, so crash files survive triage round trips without diff
// noise.
func TestArtifactSaveLoadSaveByteIdentical(t *testing.T) {
	rep := core.NewFuzzer("reorder_5", reorder(5), core.Options{
		Budget: 500, Seed: 21, StopAtFirstBug: true,
	}).Run()
	if !rep.FoundBug() {
		t.Fatal("no failure to serialize")
	}
	dir := t.TempDir()
	first := filepath.Join(dir, "first.json")
	if err := core.NewArtifact("reorder_5", rep.Failures[0]).Save(first); err != nil {
		t.Fatal(err)
	}
	a, err := core.LoadArtifact(first)
	if err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, "second.json")
	if err := a.Save(second); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("save/load/save changed the bytes:\n%s\nvs\n%s", b1, b2)
	}
}
