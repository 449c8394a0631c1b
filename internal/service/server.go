package service

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rff/internal/store"
	"rff/internal/telemetry"
	"rff/internal/triage"
)

// Options configures a Server.
type Options struct {
	// Store is the content-addressed blob store (required).
	Store *store.Store
	// MaxJobs bounds concurrently running campaigns (0 = GOMAXPROCS).
	MaxJobs int
	// QueueCap bounds queued-but-not-running jobs (0 = 64); a full
	// queue rejects submissions rather than buffering without bound.
	QueueCap int
	// JobDeadline, if positive, arms a wall-clock deadline on every
	// job's context; a job past it stops within one scheduling step and
	// fails with a deadline error.
	JobDeadline time.Duration
	// Telemetry, if non-nil, receives daemon-level metrics and the
	// structured request log (http-request events).
	Telemetry telemetry.Sink
	// DefaultShards, when >= 1, fills CampaignRequest.Shards for
	// submissions that leave it unset, before canonicalization — so the
	// default participates in the cache key exactly like an explicit
	// value, and flipping the daemon default never serves results
	// computed by the other algorithm.
	DefaultShards int
	// TriageDir, if non-empty, enables background triage: every
	// completed job's artifacts are minimized and clustered into the
	// regression corpus rooted at this directory (loaded at startup, so
	// clusters accumulate across daemon restarts), and the /v1/clusters
	// endpoints serve the live cluster set.
	TriageDir string
	// TriageBudget bounds per-artifact minimization probes during
	// background triage (0 = the triage default).
	TriageBudget int
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Server is the rffd campaign service: a bounded job queue, a pool of
// scheduler workers draining it through the fleet-backed matrix runner,
// and the content-addressed result store. Construct with New, call
// Start to begin executing jobs, and Drain for graceful shutdown.
type Server struct {
	opts  Options
	store *store.Store
	index *store.Index

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    chan *Job
	nextID   int
	draining bool

	baseCtx context.Context
	stop    context.CancelFunc
	workers sync.WaitGroup
	started bool

	// triager clusters completed jobs' artifacts (nil = triage off);
	// triageMu serializes corpus writes across scheduler workers.
	triager  *triage.Triager
	triageMu sync.Mutex

	// testAfterRun, if set, runs between a job's campaign finishing and
	// its terminal state being recorded — the hook drain-race tests use
	// to cancel the server inside that window deterministically.
	testAfterRun func()
	// testAfterTriage, if set, runs once a completed job's artifacts are
	// triaged and the corpus is persisted — the point tests wait for
	// before reloading the corpus.
	testAfterTriage func()
}

// New builds a server over the store, restoring any queue persisted by
// a previous drain. Jobs do not execute until Start.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("service: Options.Store is required")
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = runtime.GOMAXPROCS(0)
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	idx, err := store.OpenIndex(opts.Store)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		store:   opts.Store,
		index:   idx,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, opts.QueueCap),
		baseCtx: ctx,
		stop:    cancel,
	}
	s.verifyIndex()
	if opts.TriageDir != "" {
		tr, err := triage.LoadCorpus(opts.TriageDir, triage.Config{
			Budget: opts.TriageBudget,
			Sink:   opts.Telemetry,
		})
		if err != nil {
			return nil, fmt.Errorf("service: loading triage corpus: %w", err)
		}
		s.triager = tr
		if n := tr.Len(); n > 0 {
			s.logf("loaded triage corpus: %d cluster(s)", n)
		}
	}
	if n, err := s.restoreQueue(); err != nil {
		s.logf("restoring persisted queue: %v", err)
	} else if n > 0 {
		s.logf("restored %d queued job(s) from a previous drain", n)
	}
	return s, nil
}

// verifyIndex drops index entries that reference missing blobs — the
// leftovers of a crash or drain that interrupted a job between its blob
// writes and the index record (an entry without its report or artifacts
// would serve cache hits whose fetches 404). A dropped entry just means
// that campaign re-runs on its next submission.
func (s *Server) verifyIndex() {
	for _, e := range s.index.Entries() {
		missing := store.ID("")
		switch {
		case !s.store.Has(e.Report):
			missing = e.Report
		case e.Events != "" && !s.store.Has(e.Events):
			missing = e.Events
		default:
			for _, id := range e.Artifacts {
				if !s.store.Has(id) {
					missing = id
					break
				}
			}
		}
		if missing == "" {
			continue
		}
		s.logf("index entry %s references missing blob %s; dropping it", e.Key, missing)
		if err := s.index.Delete(e.Key); err != nil {
			s.logf("dropping index entry %s: %v", e.Key, err)
		}
	}
}

// Store returns the server's blob store.
func (s *Server) Store() *store.Store { return s.store }

// Index returns the campaign result index.
func (s *Server) Index() *store.Index { return s.index }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Start launches the scheduler workers. Safe to call once.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for w := 0; w < s.opts.MaxJobs; w++ {
		s.workers.Add(1)
		go s.worker()
	}
}

// worker drains the queue until it closes (Drain). Jobs reached after
// draining began are left queued — they persist to disk for the next
// daemon instance instead of delaying shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			continue // stays JobQueued; Drain persists it
		}
		s.execute(j)
	}
}

// execute transitions one queued job through running to a terminal
// state. Cancel-before-start and drain-cancellation both surface as
// context.Canceled.
func (s *Server) execute(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if s.opts.JobDeadline > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, s.opts.JobDeadline)
		defer tcancel()
	}

	j.mu.Lock()
	if j.cancelled || j.state != JobQueued {
		// Cancelled while queued: finish without running.
		j.mu.Unlock()
		s.finishJob(j, nil, context.Canceled)
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()

	j.events.Emit(EvJobStarted, telemetry.Fields{
		"job":     j.ID,
		"tools":   j.Request.Tools,
		"budget":  j.Request.Budget,
		"trials":  j.Request.Trials,
		"workers": j.Request.Workers,
	})
	// runJob checks ctx itself before persisting anything, so a nil
	// error here means a complete, fully-stored result — record it as
	// done even if a drain cancelled the context afterwards. (Flipping
	// a completed job to cancelled post-hoc used to leave its persisted
	// artifact blobs unindexed and requeue the whole campaign.)
	entry, err := s.runJob(ctx, j)
	if s.testAfterRun != nil {
		s.testAfterRun()
	}
	s.finishJob(j, entry, err)
	if err == nil {
		s.triageEntry(entry)
		if s.testAfterTriage != nil {
			s.testAfterTriage()
		}
	}
	s.logf("job %s: %s", j.ID, j.State())
}

// Submit validates, canonicalizes, and enqueues a campaign. An
// identical already-completed campaign short-circuits: the job is born
// done with the stored result and CacheHit set, its event stream
// carrying job-cached + job-done so SSE consumers see a terminal event.
func (s *Server) Submit(req CampaignRequest) (*Job, error) {
	if req.Shards == 0 {
		req.Shards = s.opts.DefaultShards
	}
	canonReq, err := req.Canonicalize()
	if err != nil {
		return nil, &RequestError{err}
	}
	key, canonJSON, err := canonReq.CacheKey()
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &UnavailableError{fmt.Errorf("server is draining")}
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), canonReq, key, canonJSON, time.Now())
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)

	if entry := s.index.Get(key); entry != nil {
		// Cache hit: the stored result is returned without re-fuzzing.
		j.state = JobDone
		j.cacheHit = true
		j.entry = entry
		j.finished = time.Now()
		s.mu.Unlock()
		j.events.Emit(EvJobCached, telemetry.Fields{"job": j.ID, "key": key})
		j.events.Emit(EvJobDone, telemetry.Fields{
			"job":       j.ID,
			"report":    entry.Report,
			"artifacts": len(entry.Artifacts),
			"cache_hit": true,
		})
		j.events.Close()
		s.logf("job %s: cache hit (%s)", j.ID, key)
		return j, nil
	}

	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		return nil, &UnavailableError{fmt.Errorf("job queue is full (%d queued)", s.opts.QueueCap)}
	}
	s.mu.Unlock()
	j.events.Emit(EvJobQueued, telemetry.Fields{"job": j.ID, "key": key})
	return j, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Cancel requests cancellation: a queued job is marked and skipped when
// a worker reaches it; a running job's context is cancelled, stopping
// every strategy within one scheduling step. Terminal jobs are a no-op.
func (s *Server) Cancel(id string) (*Job, error) {
	j, ok := s.Job(id)
	if !ok {
		return nil, &NotFoundError{fmt.Errorf("no job %q", id)}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state.Terminal():
		// Nothing to do.
	case j.state == JobRunning && j.cancel != nil:
		j.cancelled = true
		j.cancel()
	default:
		j.cancelled = true
	}
	return j, nil
}

// Drain is graceful shutdown: stop accepting submissions, let running
// jobs finish until ctx expires, then cancel the stragglers (their
// checkpointed state is discarded and they requeue), and persist every
// job that never ran so a restarted daemon resumes them.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	started := s.started
	close(s.queue)
	s.mu.Unlock()

	if started {
		finished := make(chan struct{})
		go func() {
			s.workers.Wait()
			close(finished)
		}()
		select {
		case <-finished:
		case <-ctx.Done():
			// Deadline: cancel in-flight jobs; every strategy observes
			// its context within one scheduling step.
			s.stop()
			<-finished
		}
	}
	return s.persistQueue()
}
