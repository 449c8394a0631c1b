package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"rff/internal/campaign"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/store"
	"rff/internal/telemetry"
)

// JobState is a job's lifecycle position. Transitions are
// queued → running → {done, failed, cancelled}, with cache hits going
// straight from queued to done.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job-lifecycle event kinds, emitted into each job's event stream
// alongside the campaign events (campaign-start, trial-done, ...). The
// last event of every stream is one of the three terminal kinds, so an
// SSE consumer can stop at job-done / job-failed / job-cancelled.
const (
	EvJobQueued    = "job-queued"
	EvJobStarted   = "job-started"
	EvJobCached    = "job-cached"
	EvJobDone      = "job-done"
	EvJobFailed    = "job-failed"
	EvJobCancelled = "job-cancelled"
	// EvHTTPRequest is the daemon's structured request log, emitted to
	// the daemon-level telemetry sink (not per-job streams).
	EvHTTPRequest = "http-request"
)

// Job is one submitted campaign moving through the queue.
type Job struct {
	// ID is the daemon-assigned job identifier ("job-000001").
	ID string
	// Request is the canonical campaign request.
	Request CampaignRequest
	// Key is the campaign cache key; CanonJSON the JSON it hashes.
	Key       store.ID
	CanonJSON []byte

	// events is the job's telemetry bridge: the campaign sink, the SSE
	// replay source, and (persisted at completion) the coverage record.
	events *telemetry.Broadcast
	// hub collects the job's metrics behind the bridge.
	hub *telemetry.Hub

	mu        sync.Mutex
	state     JobState
	errMsg    string
	cacheHit  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	entry     *store.Entry
	cancelled bool // cancel requested (observed by queued jobs)
	cancel    context.CancelFunc
}

// newJob builds a queued job with a live event bridge.
func newJob(id string, req CampaignRequest, key store.ID, canon []byte, now time.Time) *Job {
	hub := telemetry.NewHub()
	return &Job{
		ID:        id,
		Request:   req,
		Key:       key,
		CanonJSON: canon,
		events:    telemetry.NewBroadcast(hub),
		hub:       hub,
		state:     JobQueued,
		created:   now,
	}
}

// JobView is the API snapshot of a job (GET /v1/jobs/{id}).
type JobView struct {
	ID       string          `json:"id"`
	State    JobState        `json:"state"`
	Request  CampaignRequest `json:"request"`
	Key      store.ID        `json:"key"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Error    string          `json:"error,omitempty"`
	Created  string          `json:"created"`
	Started  string          `json:"started,omitempty"`
	Finished string          `json:"finished,omitempty"`
	// Result points at the stored blobs once the job is done.
	Result *store.Entry `json:"result,omitempty"`
}

// View snapshots the job for the API.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		State:    j.state,
		Request:  j.Request,
		Key:      j.Key,
		CacheHit: j.cacheHit,
		Error:    j.errMsg,
		Created:  j.created.UTC().Format(time.RFC3339Nano),
		Result:   j.entry,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// --- campaign result ---------------------------------------------------------

// ArtifactRef ties one stored crash artifact to the (tool, program)
// cell that produced it.
type ArtifactRef struct {
	// ID is the artifact blob's content address (a core.Artifact JSON).
	ID store.ID `json:"id"`
	// Tool is the canonical strategy name that exposed the failure.
	Tool string `json:"tool"`
	// Program is the program the failure occurred in.
	Program string `json:"program"`
	// FailureKind is the bug class ("assertion violation", "deadlock", ...).
	FailureKind string `json:"failure_kind"`
}

// CampaignResult is the stored report blob: a pure function of the
// canonical request (no timestamps, no worker counts), so identical
// campaigns — at any parallelism — produce byte-identical reports. The
// cache-hit contract and the CI byte-identity diff both lean on this.
type CampaignResult struct {
	// Request echoes the canonical request (execution hints stripped).
	Request json.RawMessage `json:"request"`
	// Tools and Programs index Outcomes in evaluation order.
	Tools    []string `json:"tools"`
	Programs []string `json:"programs"`
	Budget   int      `json:"budget"`
	// Outcomes[tool][program] is the per-trial outcome list, exactly
	// campaign.MatrixResult's shape.
	Outcomes map[string]map[string][]campaign.Outcome `json:"outcomes"`
	// Artifacts lists every distinct crash artifact, sorted by
	// (tool, program, id).
	Artifacts []ArtifactRef `json:"artifacts,omitempty"`
	// BugsFound counts (tool, program, trial) cells that exposed a bug.
	BugsFound int `json:"bugs_found"`
	// BudgetReport records the adaptive allocator's accounting when the
	// request set budget_policy: the allocation trace, per-cell spend,
	// and reallocation count. Nil for fixed-budget campaigns.
	BudgetReport *campaign.BudgetReport `json:"budget_report,omitempty"`
}

// EncodeResult renders the canonical report bytes that get stored (and
// diffed for byte-identity in CI).
func EncodeResult(res *CampaignResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// --- artifact collection -----------------------------------------------------

// collectedArtifact is one failure captured during a job, with its
// serialized core.Artifact bytes.
type collectedArtifact struct {
	ref  ArtifactRef
	data []byte
}

// artifactCollector is a per-tool campaign.ResultObserver that turns
// every failing execution into a content-addressed crash artifact.
// Observers run concurrently across fleet workers, so the collector
// locks; content addressing dedups identical failures, and the final
// artifact list is sorted, keeping stored results independent of
// worker scheduling.
type artifactCollector struct {
	tool string

	mu   sync.Mutex
	seen map[store.ID]bool
	arts []collectedArtifact
}

func newArtifactCollector(tool string) *artifactCollector {
	return &artifactCollector{tool: tool, seen: make(map[store.ID]bool)}
}

// observe implements campaign.ResultObserver. It copies everything it
// keeps — the trace is recycled after it returns.
func (c *artifactCollector) observe(res *exec.Result) {
	if res.Failure == nil {
		return
	}
	f := *res.Failure
	// The standard crash artifact, encoded in Artifact.Save's format: a
	// fetched blob is a valid `rff replay` file.
	data, err := core.EncodeArtifact(core.NewArtifact(res.Program, core.FailureRecord{
		Seed:      res.Seed,
		Failure:   &f,
		Decisions: res.Trace.ThreadOrder(),
	}))
	if err != nil {
		return // unserializable failure: droppable, the outcome still records it
	}
	id := store.SumID(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen[id] {
		return
	}
	c.seen[id] = true
	c.arts = append(c.arts, collectedArtifact{
		ref: ArtifactRef{
			ID:          id,
			Tool:        c.tool,
			Program:     res.Program,
			FailureKind: f.Kind.String(),
		},
		data: data,
	})
}
