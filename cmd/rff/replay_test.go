package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
)

// saveCrash fuzzes a known-buggy program to its first failure and
// writes the crash artifact, returning its path.
func saveCrash(t *testing.T) string {
	t.Helper()
	p := bench.MustGet("CS/reorder_5")
	rep := core.NewFuzzer(p.Name, p.Body, core.Options{
		Budget: 1000, Seed: 21, StopAtFirstBug: true,
	}).Run()
	if !rep.FoundBug() {
		t.Fatal("no failure to serialize")
	}
	path := filepath.Join(t.TempDir(), "crash-000.json")
	if err := core.NewArtifact(p.Name, rep.Failures[0]).Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayOut runs the replay core and captures its streams.
func replayOut(path string) (code int, stdout, stderr string) {
	var out, errb strings.Builder
	code = runReplay(path, false, &out, &errb)
	return code, out.String(), errb.String()
}

func TestReplayReproduces(t *testing.T) {
	code, stdout, stderr := replayOut(saveCrash(t))
	if code != 0 {
		t.Fatalf("replay exited %d: %s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "reproduced") {
		t.Fatalf("replay output missing confirmation: %q", stdout)
	}
}

// TestReplayCorruptArtifacts: damaged crash files produce a readable
// error and a failing exit code — not a panic, not a silent success.
func TestReplayCorruptArtifacts(t *testing.T) {
	good, err := os.ReadFile(saveCrash(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"truncated", good[:len(good)/2], "malformed artifact JSON"},
		{"empty", nil, "malformed artifact JSON"},
		{"not-json", []byte("schedule garbage\n"), "malformed artifact JSON"},
		{"no-decisions", []byte(`{"program": "CS/reorder_5", "failure_kind": "assertion failure", "decisions": []}`), "invalid artifact"},
		{"bad-thread-id", []byte(`{"program": "CS/reorder_5", "failure_kind": "assertion failure", "decisions": [0]}`), "invalid artifact"},
		{"unknown-program", []byte(`{"program": "no/such_prog", "failure_kind": "assertion failure", "decisions": [1]}`), "unknown program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := replayOut(path)
			if code == 0 {
				t.Fatalf("corrupt artifact replayed successfully: %q", stdout)
			}
			if !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr %q does not mention %q", stderr, tc.wantErr)
			}
		})
	}
	t.Run("missing-file", func(t *testing.T) {
		code, _, stderr := replayOut(filepath.Join(dir, "does-not-exist.json"))
		if code == 0 || !strings.Contains(stderr, "no such file") {
			t.Fatalf("missing file: code %d, stderr %q", code, stderr)
		}
	})
}

// TestReplayMismatchFails: an artifact whose replay fails differently
// from its record — another kind, or another location — does not
// reproduce: exit 1 and a reason, the rule `rff regress` applies.
func TestReplayMismatchFails(t *testing.T) {
	a, err := core.LoadArtifact(saveCrash(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		edit func(a *core.Artifact)
		want string
	}{
		{"kind", func(a *core.Artifact) { a.FailureKind = "deadlock" }, "expected deadlock"},
		{"location", func(a *core.Artifact) { a.FailureLoc = "nowhere.go:1" }, "expected nowhere.go:1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := *a
			tc.edit(&b)
			path := filepath.Join(dir, tc.name+".json")
			if err := b.Save(path); err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := replayOut(path)
			if code != 1 {
				t.Fatalf("mismatched replay exited %d: %s%s", code, stdout, stderr)
			}
			if !strings.Contains(stdout, "did NOT reproduce") || !strings.Contains(stdout, tc.want) {
				t.Fatalf("stdout %q does not name the mismatch %q", stdout, tc.want)
			}
		})
	}
}
