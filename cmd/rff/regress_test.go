package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/triage"
)

// buildCorpus triages one real crash into a regression corpus directory.
func buildCorpus(t *testing.T) string {
	t.Helper()
	p := bench.MustGet("CS/reorder_5")
	rep := core.NewFuzzer(p.Name, p.Body, core.Options{
		Budget: 1000, Seed: 21, StopAtFirstBug: true,
	}).Run()
	if !rep.FoundBug() {
		t.Fatal("no failure to triage")
	}
	tr := triage.New(triage.Config{Budget: 64})
	if _, err := tr.Add(core.NewArtifact(p.Name, rep.Failures[0]), "rff"); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	if err := triage.SaveCorpus(tr, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRegressCleanCorpus(t *testing.T) {
	dir := buildCorpus(t)
	var out, errb strings.Builder
	if code := runRegress(dir, 0, &out, &errb); code != 0 {
		t.Fatalf("regress exited %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "1/1 cluster(s) reproduced") {
		t.Fatalf("regress output missing summary: %q", out.String())
	}
}

// TestRegressFlagsNonReproducingEntry: a corpus whose recorded failure
// no longer matches the replay must fail loudly with the cluster named.
func TestRegressFlagsNonReproducingEntry(t *testing.T) {
	dir := buildCorpus(t)
	data, err := os.ReadFile(filepath.Join(dir, "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	clusters := f["clusters"].([]any)
	c := clusters[0].(map[string]any)
	id := c["id"].(string)
	// Rewrite the canonical artifact's recorded failure kind so the
	// replay (which still reproduces the original assertion) mismatches.
	artPath := filepath.Join(dir, "artifacts", id+".json")
	a, err := core.LoadArtifact(artPath)
	if err != nil {
		t.Fatal(err)
	}
	a.FailureKind = "deadlock"
	enc, err := core.EncodeArtifact(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artPath, enc, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb strings.Builder
	if code := runRegress(dir, 0, &out, &errb); code == 0 {
		t.Fatalf("regress passed on a tampered corpus: %s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL "+id) {
		t.Fatalf("regress output does not name the failing cluster: %q", out.String())
	}
}

func TestRegressMissingCorpus(t *testing.T) {
	var out, errb strings.Builder
	if code := runRegress(filepath.Join(t.TempDir(), "nope"), 0, &out, &errb); code == 0 {
		t.Fatal("regress passed with no corpus present")
	}
	if errb.Len() == 0 {
		t.Fatal("regress reported no error for a missing corpus")
	}
}
