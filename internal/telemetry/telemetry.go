// Package telemetry is the fuzzer's observability layer: a lock-cheap
// metrics registry (atomic counters, gauges, and log-bucketed
// histograms), a deterministic JSON-serializable Snapshot of that
// registry, a streaming JSONL event sink, and a periodic progress
// reporter for long campaigns.
//
// Instrumented code (the engine loop, the fuzzing loop, the campaign
// matrix driver) holds a Sink and guards every call with a nil check,
// so a campaign without telemetry pays one predicted branch per
// instrumentation point. The concrete *Hub additionally tolerates nil
// receivers, making the zero value a safe no-op even when stored inside
// a non-nil Sink interface.
package telemetry

// Label is one name=value dimension of a metric (e.g. tool="RFF",
// program="CS/reorder_10"). Metrics with the same name but different
// label sets are independent series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Fields is the free-form payload of an event. Values must be
// JSON-marshalable; encoding/json sorts the keys, keeping every emitted
// line deterministic for a deterministic campaign.
type Fields map[string]any

// Sink receives metric updates and structured events from instrumented
// code. Implementations must be safe for concurrent use; every method
// must be cheap enough to call once per executed schedule.
//
// A nil Sink means telemetry is disabled: instrumentation points check
// for nil before calling.
type Sink interface {
	// Add increments the counter name{labels} by delta.
	Add(name string, delta int64, labels ...Label)
	// Set sets the gauge name{labels} to value.
	Set(name string, value int64, labels ...Label)
	// Observe records value into the log-bucketed histogram name{labels}.
	Observe(name string, value int64, labels ...Label)
	// Emit appends a structured event to the campaign's event stream.
	Emit(kind string, fields Fields)
}

// Metric names used by the built-in instrumentation points. Counters
// unless noted otherwise.
const (
	// MSchedulesExecuted counts executed schedules per {program}.
	MSchedulesExecuted = "schedules_executed"
	// MSchedulesCrashed counts schedules that exposed a bug per {program}.
	MSchedulesCrashed = "schedules_crashed"
	// MRFPairsNew counts never-before-seen reads-from pairs per {program}.
	MRFPairsNew = "rf_pairs_new"
	// MRFCombosNew counts new reads-from combinations per {program}.
	MRFCombosNew = "rf_combos_new"
	// MCorpusSize is a gauge: the current corpus size per {program}.
	MCorpusSize = "corpus_size"
	// MCorpusAdds counts schedules added to the corpus per {program}.
	MCorpusAdds = "corpus_additions"
	// MEnergyAssigned is a histogram of power-schedule energy per stage.
	MEnergyAssigned = "energy_assigned"
	// MConstraintSatisfied counts positive constraints witnessed by the
	// proactive scheduler per {program}.
	MConstraintSatisfied = "constraint_satisfied"
	// MConstraintRejected counts negative constraints violated per {program}.
	MConstraintRejected = "constraint_rejected"
	// MObserverPanics counts recovered TraceObserver panics per {program}.
	MObserverPanics = "observer_panics"
	// MStepsPerSchedule is a histogram of events per execution (engine).
	MStepsPerSchedule = "steps_per_schedule"
	// MEngineExecutions counts engine executions (all tools).
	MEngineExecutions = "engine_executions"
	// MEngineTruncated counts executions cut off by the step budget.
	MEngineTruncated = "engine_truncated"
	// MTrialsDone counts completed matrix trials per {tool,program}.
	MTrialsDone = "trials_done"
	// MTrialPanics counts matrix trials aborted by a recovered panic.
	MTrialPanics = "trial_panics"
	// MFleetCellsDone counts completed fleet cells; each worker merges
	// its local count into the counter once, at the pool barrier.
	MFleetCellsDone = "fleet_cells_done"
	// MFleetCellDuration is a histogram of per-cell wall-clock time in
	// microseconds.
	MFleetCellDuration = "fleet_cell_duration"
	// MFleetWorkersBusy is a live gauge of fleet workers currently
	// inside a cell (reset to 0 at the pool barrier).
	MFleetWorkersBusy = "fleet_workers_busy"
	// MFleetUtilization is a gauge set at the pool barrier: the percent
	// of worker wall-clock spent inside cells, 0-100.
	MFleetUtilization = "fleet_utilization_pct"
	// MConformancePrograms counts generated programs checked by the
	// conformance harness.
	MConformancePrograms = "conformance_programs"
	// MConformanceSkipped counts generated programs skipped because
	// systematic enumeration did not complete within the ground-truth
	// budget.
	MConformanceSkipped = "conformance_skipped"
	// MConformanceViolations counts soundness violations (behaviors
	// observed outside the enumerated ground-truth set) per {tool}.
	MConformanceViolations = "conformance_violations"
	// MConformanceReplays counts failure replay checks per {tool};
	// MConformanceReplayFailures counts the ones that did not reproduce.
	MConformanceReplays        = "conformance_replays"
	MConformanceReplayFailures = "conformance_replay_failures"
	// MConformanceCoverage is a histogram of final ground-truth rf-pair
	// coverage per {tool}, in percent (one observation per program).
	MConformanceCoverage = "conformance_rf_coverage_pct"
	// MShardExecs counts executions run per {program,shard} of a sharded
	// campaign (including executions later discarded by a deterministic
	// stop-at-first-bug truncation — it measures work done, not counted
	// budget).
	MShardExecs = "shard_execs"
	// MShardSteals is no longer emitted: shard batches run as fleet
	// cells, which have no steals to count. The name stays because the
	// rffperf benchmark module still reads the series (as zero).
	MShardSteals = "shard_steals"
	// MShardMergeNS is a histogram of epoch merge-barrier wall-clock in
	// nanoseconds per {program}.
	MShardMergeNS = "shard_merge_ns"
	// MShardUtilization is a gauge set at campaign end: the percent of
	// shard wall-clock spent executing batches, 0-100, per {program}.
	MShardUtilization = "shard_utilization_pct"
	// MTriageClusters is a gauge tracking the number of distinct failure
	// clusters in the triage corpus.
	MTriageClusters = "triage_clusters_total"
	// MTriageMinimizeSteps counts candidate executions (probes) spent
	// minimizing artifacts during triage.
	MTriageMinimizeSteps = "triage_minimize_steps"
	// MTriageDedupHits counts artifacts that triage recognized as
	// already-ingested content or as members of an existing cluster.
	MTriageDedupHits = "triage_dedup_hits"
	// MBudgetEpochs counts adaptive-budget allocation barriers run by a
	// budgeted campaign matrix.
	MBudgetEpochs = "budget_epochs"
	// MBudgetReallocations counts cells whose epoch share differed from
	// their previous-epoch share — how much the policy actually moved
	// budget around.
	MBudgetReallocations = "budget_reallocations"
	// MBudgetShare is a gauge set at campaign end: the percent of the
	// matrix's spent executions each {tool, program} cell received,
	// 0-100.
	MBudgetShare = "budget_share_pct"
)

// Event kinds emitted by the built-in instrumentation points.
const (
	// EvCampaignStart opens a campaign's event stream.
	EvCampaignStart = "campaign-start"
	// EvCampaignDone closes a campaign's event stream.
	EvCampaignDone = "campaign-done"
	// EvFirstBug fires when a fuzzing campaign finds its first failure.
	EvFirstBug = "first-bug"
	// EvInteresting fires when a mutant is added to the corpus.
	EvInteresting = "interesting-schedule"
	// EvTrialDone fires at the matrix's final barrier, in matrix order,
	// for every trial that finished without an infrastructure failure.
	EvTrialDone = "trial-done"
	// EvTrialError fires (at the merge barrier, in deterministic cell
	// order) for every matrix trial that aborted with an infrastructure
	// failure; its fields carry the cell identity, error, and panic
	// stack.
	EvTrialError = "trial_error"
	// EvConformanceProgram fires after the conformance harness finishes
	// cross-checking one generated program against its ground truth.
	EvConformanceProgram = "conformance-program"
	// EvConformanceViolation fires for every soundness or replay
	// violation, with the offending tool, program, and behavior.
	EvConformanceViolation = "conformance-violation"
	// EvEpochMerge fires after every sharded-campaign merge barrier. Its
	// fields are deterministic (epoch index, counted executions, corpus
	// size) — never wall-clock or shard attribution — so the event stream
	// of a deterministic sharded campaign is identical at every shard
	// count.
	EvEpochMerge = "epoch-merge"
	// EvBudgetEpoch fires after every adaptive-budget allocation barrier
	// with the epoch index, pool, per-epoch executions, new pairs, and
	// live cell count. All fields are deterministic, so the budgeted
	// event stream is identical at every worker count.
	EvBudgetEpoch = "budget-epoch"
)

// Hub is the standard Sink implementation: a metrics Registry plus an
// optional JSONL event stream. A nil *Hub (or a Hub with nil parts) is
// a valid no-op, so callers may pass hubs around without guarding.
type Hub struct {
	Metrics *Registry
	Events  *EventWriter
}

// NewHub returns a Hub with a fresh registry and no event stream.
func NewHub() *Hub { return &Hub{Metrics: NewRegistry()} }

// Add implements Sink.
func (h *Hub) Add(name string, delta int64, labels ...Label) {
	if h == nil || h.Metrics == nil {
		return
	}
	h.Metrics.Counter(name, labels...).Add(delta)
}

// Set implements Sink.
func (h *Hub) Set(name string, value int64, labels ...Label) {
	if h == nil || h.Metrics == nil {
		return
	}
	h.Metrics.Gauge(name, labels...).Set(value)
}

// Observe implements Sink.
func (h *Hub) Observe(name string, value int64, labels ...Label) {
	if h == nil || h.Metrics == nil {
		return
	}
	h.Metrics.Histogram(name, labels...).Observe(value)
}

// Emit implements Sink.
func (h *Hub) Emit(kind string, fields Fields) {
	if h == nil || h.Events == nil {
		return
	}
	h.Events.Emit(kind, fields)
}

// Snapshot returns the current state of the hub's registry (empty when
// the hub or its registry is nil).
func (h *Hub) Snapshot() Snapshot {
	if h == nil || h.Metrics == nil {
		return Snapshot{}
	}
	return h.Metrics.Snapshot()
}

// Flush forces any buffered events out to the underlying writer.
func (h *Hub) Flush() {
	if h == nil || h.Events == nil {
		return
	}
	h.Events.Flush()
}
