package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"rff/internal/budget"
	"rff/internal/campaign"
	"rff/internal/store"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

// runJob executes one campaign end to end: resolve the workload and
// tools, run the evaluation matrix under the job's context, persist the
// report + artifacts + event history into the store, and record the
// index entry that makes the next identical submission a cache hit.
//
// The returned error is an infrastructure failure (job → failed);
// ctx cancellation surfaces as context.Canceled (job → cancelled).
func (s *Server) runJob(ctx context.Context, j *Job) (*store.Entry, error) {
	req := j.Request
	sink := telemetry.Sink(j.events)

	programs, err := req.Programs()
	if err != nil {
		return nil, err
	}
	tools, err := strategy.ResolveAll(req.Tools, strategy.Config{Telemetry: sink, Shards: req.Shards})
	if err != nil {
		return nil, err
	}
	// One artifact collector per tool, so a stored artifact knows which
	// strategy exposed it; the matrix routes every trial's executions to
	// its tool's collector.
	collectors := make(map[string]*artifactCollector, len(tools))
	for _, tl := range tools {
		collectors[tl.Name()] = newArtifactCollector(tl.Name())
	}

	opts := campaign.MatrixOptions{
		Trials:    req.Trials,
		Budget:    req.Budget,
		MaxSteps:  req.MaxSteps,
		BaseSeed:  req.Seed,
		Workers:   req.Workers,
		Telemetry: sink,
		Observe: func(tool, _ string, _ int) campaign.ResultObserver {
			return collectors[tool].observe
		},
	}
	if req.BudgetPolicy != "" {
		opts.Budgeter = &budget.Config{Policy: req.BudgetPolicy, Epochs: req.BudgetEpochs}
	}
	m := campaign.RunMatrixContext(ctx, tools, programs, opts)
	if err := ctx.Err(); err != nil {
		// A cancelled matrix is a checkpoint, not a result: don't cache
		// partial outcomes under the campaign's key.
		return nil, err
	}

	// Assemble and persist the deterministic result.
	res := &CampaignResult{
		Request:      json.RawMessage(j.CanonJSON),
		Tools:        m.Tools,
		Programs:     m.Programs,
		Budget:       m.Budget,
		Outcomes:     m.Outcomes,
		BudgetReport: m.BudgetReport,
	}
	for _, tool := range m.Tools {
		for _, p := range m.Programs {
			for _, o := range m.Outcomes[tool][p] {
				if o.Found() {
					res.BugsFound++
				}
			}
		}
	}
	entry := &store.Entry{
		Key:       j.Key,
		Request:   json.RawMessage(j.CanonJSON),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	for _, tool := range m.Tools {
		col := collectors[tool]
		col.mu.Lock()
		arts := append([]collectedArtifact(nil), col.arts...)
		col.mu.Unlock()
		// Content addressing already dedups within a tool; sorting by
		// (program, id) erases observation-order nondeterminism.
		sort.Slice(arts, func(a, b int) bool {
			if arts[a].ref.Program != arts[b].ref.Program {
				return arts[a].ref.Program < arts[b].ref.Program
			}
			return arts[a].ref.ID < arts[b].ref.ID
		})
		for _, ca := range arts {
			id, err := s.store.Put(ca.data)
			if err != nil {
				return nil, fmt.Errorf("storing artifact: %w", err)
			}
			if id != ca.ref.ID {
				return nil, fmt.Errorf("artifact id mismatch: %s != %s", id, ca.ref.ID)
			}
			res.Artifacts = append(res.Artifacts, ca.ref)
			entry.Artifacts = append(entry.Artifacts, ca.ref.ID)
		}
	}

	reportData, err := EncodeResult(res)
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	if entry.Report, err = s.store.Put(reportData); err != nil {
		return nil, fmt.Errorf("storing report: %w", err)
	}
	return entry, nil
}

// finishJob emits the terminal event, seals the event stream, persists
// it as the job's coverage/event blob, and records the index entry.
func (s *Server) finishJob(j *Job, entry *store.Entry, runErr error) {
	switch {
	case runErr == nil:
		j.events.Emit(EvJobDone, telemetry.Fields{
			"job":       j.ID,
			"report":    entry.Report,
			"artifacts": len(entry.Artifacts),
		})
	case errors.Is(runErr, context.Canceled):
		j.events.Emit(EvJobCancelled, telemetry.Fields{"job": j.ID, "error": runErr.Error()})
	default:
		j.events.Emit(EvJobFailed, telemetry.Fields{"job": j.ID, "error": runErr.Error()})
	}
	j.events.Close()

	if runErr == nil {
		// The event history (trial-done stream, first-bug marks, corpus
		// growth) is the campaign's convergence record; store it beside
		// the report. Failure to persist events degrades to a report-only
		// entry rather than failing the finished campaign.
		if evData := j.events.HistoryJSONL(); len(evData) > 0 {
			if id, err := s.store.Put(evData); err == nil {
				entry.Events = id
			}
		}
		if err := s.index.Put(entry); err != nil {
			s.logf("job %s: recording index entry: %v", j.ID, err)
		}
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case runErr == nil:
		j.state = JobDone
		j.entry = entry
	case errors.Is(runErr, context.Canceled):
		j.state = JobCancelled
		j.errMsg = runErr.Error()
	default:
		j.state = JobFailed
		j.errMsg = runErr.Error()
	}
}
