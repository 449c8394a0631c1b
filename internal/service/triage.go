package service

import (
	"rff/internal/core"
	"rff/internal/store"
	"rff/internal/triage"
)

// triageEntry feeds a completed campaign's artifacts through the triage
// pipeline and persists the updated regression corpus. It runs on the
// scheduler worker after the job seals its terminal event, so triage
// latency (minimization probes) never delays the job's API-visible
// completion; identical artifacts re-observed by later campaigns dedup
// by content inside the triager.
func (s *Server) triageEntry(entry *store.Entry) {
	if s.triager == nil || entry == nil || len(entry.Artifacts) == 0 {
		return
	}
	for _, line := range triage.FromEntry(s.triager, s.store, entry) {
		s.logf("triage: artifact %s", line)
	}
	s.triageMu.Lock()
	defer s.triageMu.Unlock()
	if err := triage.SaveCorpus(s.triager, s.opts.TriageDir); err != nil {
		s.logf("triage: saving corpus: %v", err)
	}
}

// clusterView is GET /v1/clusters/{id}: the cluster plus its canonical
// minimal artifact inlined, so a client can replay without a second
// fetch.
type clusterView struct {
	*triage.Cluster
	Canonical *core.Artifact `json:"canonical,omitempty"`
}
