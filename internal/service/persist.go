package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rff/internal/store"
)

// queueFile is the persisted form of the not-yet-run queue: the
// canonical requests of every job a draining daemon did not execute,
// written next to the store so the next daemon instance resumes them.
type queueFile struct {
	Jobs []CampaignRequest `json:"jobs"`
}

// queuePath is the persisted queue's location under the store root.
func (s *Server) queuePath() string {
	return filepath.Join(s.store.Root(), "queue.json")
}

// persistQueue writes every still-queued, not-user-cancelled job's
// request to queue.json (atomically; an empty queue removes the file).
// Jobs the drain cancelled mid-run are requeued too: their partial
// state was discarded, so the next daemon re-runs them from scratch
// (or serves them from cache if a twin completed meanwhile).
func (s *Server) persistQueue() error {
	s.mu.Lock()
	var qf queueFile
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		requeue := (j.state == JobQueued && !j.cancelled) ||
			(j.state == JobCancelled && !j.cancelled) // drain-cancelled mid-run
		j.mu.Unlock()
		if requeue {
			qf.Jobs = append(qf.Jobs, j.Request)
		}
	}
	s.mu.Unlock()

	path := s.queuePath()
	if len(qf.Jobs) == 0 {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("service: removing %s: %w", path, err)
		}
		return nil
	}
	data, err := json.MarshalIndent(qf, "", "  ")
	if err != nil {
		return fmt.Errorf("service: marshaling queue: %w", err)
	}
	if err := store.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.logf("persisted %d queued job(s) to %s", len(qf.Jobs), path)
	return nil
}

// restoreQueue re-submits the persisted queue of a previous drain and
// removes the file. Requests whose campaigns completed elsewhere in the
// meantime resolve as cache hits.
func (s *Server) restoreQueue() (int, error) {
	path := s.queuePath()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var qf queueFile
	if err := json.Unmarshal(data, &qf); err != nil {
		return 0, fmt.Errorf("malformed %s: %w", path, err)
	}
	n := 0
	for i, req := range qf.Jobs {
		if _, err := s.Submit(req); err != nil {
			s.logf("restored job %d: %v", i, err)
			continue
		}
		n++
	}
	if err := os.Remove(path); err != nil {
		return n, err
	}
	return n, nil
}
