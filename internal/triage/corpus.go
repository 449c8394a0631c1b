package triage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rff/internal/core"
	"rff/internal/store"
)

// Corpus is the on-disk regression corpus:
//
//	<dir>/corpus.json                 (cluster index, sorted by ID)
//	<dir>/artifacts/<clusterID>.json  (canonical minimal artifact)
//
// The index is a pure function of the ingested artifact set and order —
// no timestamps — so re-triaging the same inputs rewrites byte-identical
// files, and CI can diff corpora across runs.
type corpusFile struct {
	// Version guards the layout for future migrations.
	Version int `json:"version"`
	// Clusters is the full cluster index, sorted by cluster ID.
	Clusters []*Cluster `json:"clusters"`
}

const corpusVersion = 1

// SaveCorpus writes the triager's cluster set as a regression corpus
// rooted at dir, atomically replacing any prior index.
func SaveCorpus(t *Triager, dir string) error {
	clusters := t.Clusters()
	artDir := filepath.Join(dir, "artifacts")
	if err := os.MkdirAll(artDir, 0o755); err != nil {
		return fmt.Errorf("triage corpus: %w", err)
	}
	for _, c := range clusters {
		if c.Canonical == nil {
			return fmt.Errorf("triage corpus: cluster %s has no canonical artifact", c.ID)
		}
		path := filepath.Join(artDir, c.ID+".json")
		if err := store.WriteFileAtomic(path, c.canonicalBytes); err != nil {
			return fmt.Errorf("triage corpus: %w", err)
		}
	}
	data, err := json.MarshalIndent(corpusFile{Version: corpusVersion, Clusters: clusters}, "", "  ")
	if err != nil {
		return fmt.Errorf("triage corpus: %w", err)
	}
	if err := store.WriteFileAtomic(filepath.Join(dir, "corpus.json"), append(data, '\n')); err != nil {
		return fmt.Errorf("triage corpus: %w", err)
	}
	return nil
}

// LoadCorpus reads a regression corpus back into a triager, restoring
// cluster metadata and canonical artifacts so new artifacts merge into
// the existing cluster set (the rffd incremental-triage path). A
// missing corpus.json yields an empty triager.
func LoadCorpus(dir string, cfg Config) (*Triager, error) {
	t := New(cfg)
	data, err := os.ReadFile(filepath.Join(dir, "corpus.json"))
	if os.IsNotExist(err) {
		return t, nil
	}
	if err != nil {
		return nil, fmt.Errorf("triage corpus: %w", err)
	}
	var f corpusFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("triage corpus %s: malformed: %w", dir, err)
	}
	if f.Version != corpusVersion {
		return nil, fmt.Errorf("triage corpus %s: unsupported version %d", dir, f.Version)
	}
	for _, c := range f.Clusters {
		art, err := core.LoadArtifact(filepath.Join(dir, "artifacts", c.ID+".json"))
		if err != nil {
			return nil, fmt.Errorf("triage corpus: cluster %s: %w", c.ID, err)
		}
		bytes, err := core.EncodeArtifact(art)
		if err != nil {
			return nil, fmt.Errorf("triage corpus: cluster %s: %w", c.ID, err)
		}
		if got := store.SumID(bytes); got != c.Artifact {
			return nil, fmt.Errorf("triage corpus: cluster %s: canonical artifact is %s, index says %s", c.ID, got, c.Artifact)
		}
		c.Canonical = art
		c.canonicalBytes = bytes
		c.canonicalDecisions = len(art.Decisions)
		if c.HitsByTool == nil {
			c.HitsByTool = make(map[string]int)
		}
		t.clusters[c.ID] = c
		for _, id := range c.ArtifactIDs {
			t.members[id] = c.ID
		}
		if c.FirstSeen >= t.ordinal {
			t.ordinal = c.FirstSeen + 1
		}
		if c.Hits > 0 {
			// Ordinals must keep advancing past every counted ingestion,
			// not just cluster births, so merged corpora stay ordered.
			if n := c.FirstSeen + c.Hits; n > t.ordinal {
				t.ordinal = n
			}
		}
	}
	sort.Slice(f.Clusters, func(i, j int) bool { return f.Clusters[i].ID < f.Clusters[j].ID })
	return t, nil
}
