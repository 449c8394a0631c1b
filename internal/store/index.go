package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Entry records one completed campaign's stored result: the blob IDs of
// everything a client can fetch back, keyed by the campaign's cache key.
// Timestamps and other non-deterministic metadata live here — never
// inside the report blob itself, which must stay a pure function of the
// campaign request so identical requests share identical content.
type Entry struct {
	// Key is the campaign cache key (SumID of the canonical request).
	Key ID `json:"key"`
	// Request is the canonical request JSON the key was derived from,
	// kept for inspection and for re-validating hits.
	Request json.RawMessage `json:"request"`
	// Report is the campaign result blob (service.CampaignResult JSON).
	Report ID `json:"report"`
	// Events is the campaign's full telemetry event history as JSONL
	// (the SSE replay source and coverage-curve record), if captured.
	Events ID `json:"events,omitempty"`
	// Artifacts are the crash artifact blobs (core.Artifact JSON), in
	// deterministic (tool, program, content) order.
	Artifacts []ID `json:"artifacts,omitempty"`
	// CreatedAt is when the entry was recorded (RFC 3339, UTC).
	CreatedAt string `json:"created_at"`
}

// Index maps campaign cache keys to result entries, persisted as one
// JSON file next to the blob store. Updates rewrite the file atomically
// (temp + rename), so a crashed daemon leaves either the old or the new
// index, never a torn one. All methods are safe for concurrent use.
type Index struct {
	path string

	mu      sync.Mutex
	entries map[ID]*Entry
}

// indexFile is the on-disk shape: entries sorted by key for stable
// serialization.
type indexFile struct {
	Entries []*Entry `json:"entries"`
}

// OpenIndex loads (or initializes) the index file under the store root.
func OpenIndex(s *Store) (*Index, error) {
	idx := &Index{
		path:    filepath.Join(s.Root(), "index.json"),
		entries: make(map[ID]*Entry),
	}
	data, err := os.ReadFile(idx.path)
	if os.IsNotExist(err) {
		return idx, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store index: %w", err)
	}
	var f indexFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("store index %s: malformed: %w", idx.path, err)
	}
	for _, e := range f.Entries {
		if !e.Key.Valid() {
			return nil, fmt.Errorf("store index %s: invalid key %q", idx.path, e.Key)
		}
		idx.entries[e.Key] = e
	}
	return idx, nil
}

// Get returns the entry for a cache key, or nil when the campaign has
// not been run (and recorded) before.
func (idx *Index) Get(key ID) *Entry {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	e, ok := idx.entries[key]
	if !ok {
		return nil
	}
	cp := *e
	cp.Artifacts = append([]ID(nil), e.Artifacts...)
	return &cp
}

// Put records (or replaces) an entry and persists the index atomically.
func (idx *Index) Put(e *Entry) error {
	if !e.Key.Valid() {
		return fmt.Errorf("store index: invalid key %q", e.Key)
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	cp := *e
	cp.Artifacts = append([]ID(nil), e.Artifacts...)
	idx.entries[e.Key] = &cp
	return idx.flushLocked()
}

// Entries returns copies of every recorded entry, sorted by key — the
// same order the index file serializes in.
func (idx *Index) Entries() []*Entry {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	out := make([]*Entry, 0, len(idx.entries))
	for _, e := range idx.entries {
		cp := *e
		cp.Artifacts = append([]ID(nil), e.Artifacts...)
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Delete removes an entry and persists the index atomically. Deleting
// an absent key is a no-op.
func (idx *Index) Delete(key ID) error {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if _, ok := idx.entries[key]; !ok {
		return nil
	}
	delete(idx.entries, key)
	return idx.flushLocked()
}

// Len returns the number of recorded campaigns.
func (idx *Index) Len() int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return len(idx.entries)
}

// flushLocked rewrites the index file atomically.
func (idx *Index) flushLocked() error {
	f := indexFile{Entries: make([]*Entry, 0, len(idx.entries))}
	for _, e := range idx.entries {
		f.Entries = append(f.Entries, e)
	}
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Key < f.Entries[j].Key })
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("store index: %w", err)
	}
	if err := WriteFileAtomic(idx.path, append(data, '\n')); err != nil {
		return fmt.Errorf("store index: %w", err)
	}
	return nil
}
