package triage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
	"rff/internal/store"
)

// FromDir ingests every *.json artifact under dir (recursively), in
// sorted path order so the resulting corpus is deterministic. tool
// attributes the artifacts ("" = "unknown"). Inputs that fail to
// decode or triage are returned as "path: reason" strings, not errors —
// bulk triage reports broken inputs instead of stopping on them.
func FromDir(t *Triager, dir, tool string) (skipped []string, err error) {
	var paths []string
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasSuffix(path, ".json") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("triage: %w", err)
	}
	sort.Strings(paths)
	for _, path := range paths {
		a, err := core.LoadArtifact(path)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		if _, err := t.Add(a, tool); err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", path, err))
		}
	}
	return skipped, nil
}

// storedReport is the slice of the service's report blob triage needs:
// the artifact references with their tool attribution. Parsing it
// locally keeps triage importable by the service (no cycle).
type storedReport struct {
	Artifacts []struct {
		ID   store.ID `json:"id"`
		Tool string   `json:"tool"`
	} `json:"artifacts"`
}

// FromStore ingests every artifact referenced by a campaign index, in
// sorted key order, attributing each to the tool its report records.
// Unreadable blobs and untriageable artifacts are returned as skipped
// strings.
func FromStore(t *Triager, s *store.Store, idx *store.Index) (skipped []string, err error) {
	for _, e := range idx.Entries() {
		skipped = append(skipped, FromEntry(t, s, e)...)
	}
	return skipped, nil
}

// FromEntry ingests one campaign's artifacts in the entry's order,
// attributing each to the tool the campaign's report records ("" when
// the report is unreadable). Artifacts that cannot be fetched, decoded
// or triaged are returned as "id: reason" strings.
func FromEntry(t *Triager, s *store.Store, e *store.Entry) (skipped []string) {
	tools := map[store.ID]string{}
	if data, err := s.Get(e.Report); err == nil {
		var rep storedReport
		if json.Unmarshal(data, &rep) == nil {
			for _, ref := range rep.Artifacts {
				tools[ref.ID] = ref.Tool
			}
		}
	}
	for _, id := range e.Artifacts {
		data, err := s.Get(id)
		if err == nil {
			var a *core.Artifact
			if a, err = core.DecodeArtifact(data); err == nil {
				_, err = t.Add(a, tools[id])
			}
		}
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", id, err))
		}
	}
	return skipped
}

// RegressFailure is one corpus entry that no longer reproduces as
// recorded.
type RegressFailure struct {
	ClusterID string
	// Reason explains the mismatch (did not fail, kind changed, ...).
	Reason string
}

// Regress replays every canonical artifact of the corpus at dir and
// reports the entries whose recorded failure no longer reproduces —
// the CI gate that keeps known bugs reproducible. maxSteps bounds each
// replay (0 = engine default). A nil slice with a nil error means every
// cluster reproduced.
func Regress(dir string, maxSteps int) ([]RegressFailure, int, error) {
	data, err := os.ReadFile(filepath.Join(dir, "corpus.json"))
	if err != nil {
		return nil, 0, fmt.Errorf("triage regress: %w", err)
	}
	var f corpusFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, 0, fmt.Errorf("triage regress: malformed corpus: %w", err)
	}
	sort.Slice(f.Clusters, func(i, j int) bool { return f.Clusters[i].ID < f.Clusters[j].ID })
	var bad []RegressFailure
	for _, c := range f.Clusters {
		a, err := core.LoadArtifact(filepath.Join(dir, "artifacts", c.ID+".json"))
		if err != nil {
			bad = append(bad, RegressFailure{ClusterID: c.ID, Reason: err.Error()})
			continue
		}
		_, reason, err := Replay(a, maxSteps)
		if err != nil {
			reason = err.Error()
		}
		if reason != "" {
			bad = append(bad, RegressFailure{ClusterID: c.ID, Reason: reason})
		}
	}
	return bad, len(f.Clusters), nil
}

// Replay re-executes an artifact's decision sequence on its program
// (maxSteps bounds the replay, 0 = engine default) and checks that the
// recorded failure reproduces: the kind must match, and the location
// too when the artifact records one. It returns the replayed result and
// an empty mismatch when it reproduced, else the reason; err reports a
// program name that resolves to no program.
func Replay(a *core.Artifact, maxSteps int) (res *exec.Result, mismatch string, err error) {
	prog, err := resolveProgram(a.Program)
	if err != nil {
		return nil, "", err
	}
	res = exec.Run(a.Program, prog, exec.Config{
		Scheduler: sched.NewReplay(a.ThreadOrder()),
		MaxSteps:  maxSteps,
	})
	switch {
	case res.Failure == nil:
		mismatch = fmt.Sprintf("replay of %s completed cleanly, expected %s", a.Program, a.FailureKind)
	case res.Failure.Kind.String() != a.FailureKind:
		mismatch = fmt.Sprintf("replay of %s failed with %s, expected %s", a.Program, res.Failure.Kind, a.FailureKind)
	case a.FailureLoc != "" && res.Failure.Loc != a.FailureLoc:
		mismatch = fmt.Sprintf("replay of %s failed at %s, expected %s", a.Program, res.Failure.Loc, a.FailureLoc)
	}
	return res, mismatch, nil
}
