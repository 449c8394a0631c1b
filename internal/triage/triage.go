// Package triage is the back half of the fuzzing pipeline: it turns the
// raw stream of failing artifacts a campaign (or a fleet of campaigns)
// produces into a bounded set of distinct, minimized, reproducible
// bugs.
//
// Every ingested core.Artifact is replayed and minimized through
// minimize.Minimize under a probe budget, then hashed into a cluster by
// a stable signature — failure kind, normalized location set, and the
// participating-thread shape of the minimal switch set — so the same
// underlying bug found by different tools at different seeds lands in
// one cluster. Each cluster keeps one canonical minimal artifact (the
// smallest reproduction seen) plus metadata: first-seen ordinal, hit
// counts per tool, preemption bound, and minimization ratio. The
// cluster set persists as a deterministic regression corpus (see
// Corpus) that CI replays, and renders as a ranked report (see Report).
//
// Determinism: ingesting the same artifact set in the same order
// produces a byte-identical corpus and report. Batch ingestion (FromDir,
// FromStore) sorts its inputs, so two runs over the same directory or
// store agree byte-for-byte.
package triage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"rff/internal/bench"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/minimize"
	"rff/internal/progen"
	"rff/internal/store"
	"rff/internal/telemetry"
)

// Config bounds the triage pipeline. The zero value is usable.
type Config struct {
	// Budget is the per-artifact minimization probe budget
	// (0 = 256 — triage favors throughput over perfectly minimal
	// reproductions; a negative budget skips minimization entirely and
	// clusters on the unminimized schedule).
	Budget int
	// MaxSteps bounds each replay execution (0 = engine default).
	MaxSteps int
	// Sink receives triage_* telemetry; nil disables it.
	Sink telemetry.Sink
}

func (c Config) budget() int {
	if c.Budget == 0 {
		return 256
	}
	return c.Budget
}

// Signature is the clustering key of a failure, derived from the
// *minimized* reproduction so incidental schedule noise cannot split a
// bug across clusters.
type Signature struct {
	// Program names the program the failure occurs in; bugs in
	// different programs are always distinct.
	Program string `json:"program"`
	// Kind is the failure class ("assertion violation", "deadlock", ...).
	Kind string `json:"kind"`
	// Locs is the normalized location set: the failing operation's
	// source location for asserts/memory/panic, or the sorted set of
	// blocked operations ("lock(m0)", thread ids and locations dropped,
	// joins excluded) for deadlocks.
	Locs []string `json:"locs,omitempty"`
	// Msg is the normalized failure message (empty for deadlocks, whose
	// raw messages enumerate schedule-dependent bystander threads).
	Msg string `json:"msg,omitempty"`
	// Threads is the shape of the minimal reproduction: the number of
	// distinct worker threads participating in the canonical artifact's
	// minimal switch set. It is descriptive, not identifying — see Key.
	Threads int `json:"threads"`
}

// Key renders the clustering key as an unambiguous string for hashing.
// Threads is deliberately excluded: delta debugging under a budget does
// not converge to one unique switch-set shape across seeds (a bystander
// thread survives in some minimal sets and not others), so keying on
// shape splits one bug into several clusters — the signature-stability
// property test demonstrates this. The shape still describes the
// cluster (it tracks the canonical, i.e. smallest, reproduction) and
// feeds report ranking; it just doesn't define identity.
func (s Signature) Key() string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%s",
		s.Program, s.Kind, strings.Join(s.Locs, "\x01"), s.Msg)
}

// ClusterID derives the cluster's stable identifier from the signature.
func (s Signature) ClusterID() string {
	h := sha256.Sum256([]byte(s.Key()))
	return "c-" + hex.EncodeToString(h[:])[:12]
}

// normalizeDeadlockLocs extracts the stable core of a deadlock message.
// The engine reports every blocked thread ("t2(w2) blocked at
// lock(m0)@w2.3, t3(w3) blocked at lock(m1)@w3.1, t1(main) blocked at
// join"), but which bystanders happen to be blocked — and where main's
// join sits — varies by schedule. What identifies the deadlock is the
// set of contended operations, so we keep "op(var)" for every non-join
// item, sorted and deduplicated, and drop thread ids and locations.
func normalizeDeadlockLocs(msg string) []string {
	seen := map[string]bool{}
	var out []string
	for _, item := range strings.Split(msg, ", ") {
		_, op, ok := strings.Cut(item, " blocked at ")
		if !ok {
			continue
		}
		if at := strings.IndexByte(op, '@'); at >= 0 {
			op = op[:at]
		}
		if op == "join" || op == "" || seen[op] {
			continue
		}
		seen[op] = true
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// signatureOf computes the cluster signature from a minimized
// reproduction.
func signatureOf(program string, f *exec.Failure, switches []minimize.Switch) Signature {
	sig := Signature{Program: program, Kind: f.Kind.String()}
	if f.Kind == exec.FailDeadlock {
		sig.Locs = normalizeDeadlockLocs(f.Msg)
	} else {
		if f.Loc != "" {
			sig.Locs = []string{f.Loc}
		}
		sig.Msg = f.Msg
	}
	threads := map[exec.ThreadID]bool{}
	for _, sw := range switches {
		if sw.Thread != 0 {
			threads[sw.Thread] = true
		}
		if sw.After != 0 {
			threads[sw.After] = true
		}
	}
	sig.Threads = len(threads)
	return sig
}

// Cluster is one distinct bug: its signature, its canonical minimal
// reproduction, and the accumulated evidence.
type Cluster struct {
	// ID is the signature-derived cluster identifier ("c-<12 hex>").
	ID string `json:"id"`
	// Signature is the clustering key.
	Signature Signature `json:"signature"`
	// FirstSeen is the ingestion ordinal (0-based) at which the cluster
	// was created — an ordinal, not a wall clock, so corpora stay
	// deterministic.
	FirstSeen int `json:"first_seen"`
	// Hits counts distinct artifacts that landed in this cluster.
	Hits int `json:"hits"`
	// HitsByTool splits Hits by the tool that found each artifact
	// ("unknown" when ingested without attribution).
	HitsByTool map[string]int `json:"hits_by_tool"`
	// Preemptions is the minimum preemption count over all minimized
	// members — the cluster's bug-depth bound.
	Preemptions int `json:"preemptions"`
	// OriginalSwitches and MinimalSwitches describe the canonical
	// artifact's minimization (ratio = minimal/original).
	OriginalSwitches int `json:"original_switches"`
	MinimalSwitches  int `json:"minimal_switches"`
	// Artifact is the content address of the canonical minimal artifact
	// JSON; ArtifactIDs lists every distinct member artifact, sorted.
	Artifact    store.ID   `json:"artifact"`
	ArtifactIDs []store.ID `json:"artifact_ids"`

	// Canonical is the minimal member artifact (the replayable
	// reproduction stored in the corpus).
	Canonical *core.Artifact `json:"-"`
	// canonicalBytes is Canonical's encoding (what Artifact addresses).
	canonicalBytes []byte
	// canonicalDecisions is the decision count of Canonical, the
	// second-order minimality tiebreak.
	canonicalDecisions int
}

// clone deep-copies the cluster for safe hand-out.
func (c *Cluster) clone() *Cluster {
	cp := *c
	cp.Signature.Locs = append([]string(nil), c.Signature.Locs...)
	cp.HitsByTool = make(map[string]int, len(c.HitsByTool))
	for k, v := range c.HitsByTool {
		cp.HitsByTool[k] = v
	}
	cp.ArtifactIDs = append([]store.ID(nil), c.ArtifactIDs...)
	cp.canonicalBytes = append([]byte(nil), c.canonicalBytes...)
	return &cp
}

// Triager accumulates artifacts into clusters. Safe for concurrent use;
// determinism of the resulting corpus is up to the caller's ingestion
// order (the batch helpers in ingest.go sort their inputs).
type Triager struct {
	cfg Config

	mu       sync.Mutex
	clusters map[string]*Cluster // by cluster ID
	members  map[store.ID]string // artifact content ID → cluster ID
	ordinal  int                 // next ingestion ordinal
}

// New builds an empty triager.
func New(cfg Config) *Triager {
	return &Triager{
		cfg:      cfg,
		clusters: make(map[string]*Cluster),
		members:  make(map[store.ID]string),
	}
}

// Outcome reports what happened to one ingested artifact.
type Outcome struct {
	// ClusterID is the cluster the artifact landed in.
	ClusterID string
	// New reports whether the artifact created the cluster.
	New bool
	// Dedup reports whether the exact artifact content had been
	// ingested before (no counts were changed).
	Dedup bool
}

// resolveProgram finds the executable body for an artifact's program
// name: generated programs regenerate from the name, benchmark programs
// resolve through the registry.
func resolveProgram(name string) (exec.Program, error) {
	if p, ok := progen.FromName(name); ok {
		return p.Body(), nil
	}
	if p, ok := bench.Get(name); ok {
		return p.Body, nil
	}
	return nil, fmt.Errorf("triage: unknown program %q", name)
}

// Add ingests one artifact found by tool (""  = "unknown"): replays and
// minimizes it, computes its signature, and files it into a cluster.
// A nil error with Outcome.Dedup set means the identical artifact had
// already been ingested. An artifact that fails to reproduce its
// recorded failure is an error — the caller decides whether that is
// fatal (regression replay) or just reportable (bulk triage).
func (t *Triager) Add(a *core.Artifact, tool string) (Outcome, error) {
	if tool == "" {
		tool = "unknown"
	}
	if err := a.Validate(); err != nil {
		return Outcome{}, fmt.Errorf("triage: invalid artifact: %w", err)
	}
	data, err := core.EncodeArtifact(a)
	if err != nil {
		return Outcome{}, fmt.Errorf("triage: %w", err)
	}
	id := store.SumID(data)

	t.mu.Lock()
	if cid, ok := t.members[id]; ok {
		t.mu.Unlock()
		if t.cfg.Sink != nil {
			t.cfg.Sink.Add(telemetry.MTriageDedupHits, 1)
		}
		return Outcome{ClusterID: cid, Dedup: true}, nil
	}
	t.mu.Unlock()

	prog, err := resolveProgram(a.Program)
	if err != nil {
		return Outcome{}, err
	}
	original := &exec.Failure{
		Kind:   failureKindOf(a.FailureKind),
		Msg:    a.FailureMsg,
		Thread: exec.ThreadID(a.Thread),
		Loc:    a.FailureLoc,
	}
	if original.Kind == 0 {
		return Outcome{}, fmt.Errorf("triage: artifact has unknown failure kind %q", a.FailureKind)
	}
	res := minimize.Minimize(a.Program, prog, a.ThreadOrder(), original, minimize.Options{
		Budget:   t.cfg.budget(),
		MaxSteps: t.cfg.MaxSteps,
		MatchLoc: true,
	})
	if res == nil {
		return Outcome{}, fmt.Errorf("triage: artifact for %s does not reproduce its %s", a.Program, a.FailureKind)
	}
	if t.cfg.Sink != nil {
		t.cfg.Sink.Add(telemetry.MTriageMinimizeSteps, int64(res.Probes))
	}

	// The stored reproduction is the *minimized* artifact: same program
	// and seed provenance, minimal decision sequence.
	min := &core.Artifact{
		Program:     a.Program,
		Seed:        a.Seed,
		Execution:   a.Execution,
		FailureKind: res.Failure.Kind.String(),
		FailureMsg:  res.Failure.Msg,
		FailureLoc:  res.Failure.Loc,
		Thread:      int32(res.Failure.Thread),
	}
	for _, d := range res.Decisions {
		min.Decisions = append(min.Decisions, int32(d))
	}
	minData, err := core.EncodeArtifact(min)
	if err != nil {
		return Outcome{}, fmt.Errorf("triage: %w", err)
	}

	sig := signatureOf(a.Program, res.Failure, res.Switches)
	cid := sig.ClusterID()

	t.mu.Lock()
	defer t.mu.Unlock()
	if prior, ok := t.members[id]; ok { // raced with an identical Add
		if t.cfg.Sink != nil {
			t.cfg.Sink.Add(telemetry.MTriageDedupHits, 1)
		}
		return Outcome{ClusterID: prior, Dedup: true}, nil
	}
	t.members[id] = cid
	c, ok := t.clusters[cid]
	isNew := !ok
	if !ok {
		c = &Cluster{
			ID:          cid,
			Signature:   sig,
			FirstSeen:   t.ordinal,
			HitsByTool:  make(map[string]int),
			Preemptions: res.Preemptions,
		}
		t.clusters[cid] = c
	} else {
		if t.cfg.Sink != nil {
			t.cfg.Sink.Add(telemetry.MTriageDedupHits, 1)
		}
		if res.Preemptions < c.Preemptions {
			c.Preemptions = res.Preemptions
		}
	}
	t.ordinal++
	c.Hits++
	c.HitsByTool[tool]++
	c.ArtifactIDs = insertID(c.ArtifactIDs, id)
	if betterCanonical(c, res, minData) {
		c.Canonical = min
		c.canonicalBytes = minData
		c.canonicalDecisions = len(min.Decisions)
		c.OriginalSwitches = res.OriginalSwitches
		c.MinimalSwitches = res.MinimalSwitches
		c.Artifact = store.SumID(minData)
		// The shape follows the canonical reproduction, so it stays a
		// pure function of the artifact set (canonical selection is a
		// total order, independent of ingestion order).
		c.Signature.Threads = sig.Threads
	}
	if t.cfg.Sink != nil {
		t.cfg.Sink.Set(telemetry.MTriageClusters, int64(len(t.clusters)))
	}
	return Outcome{ClusterID: cid, New: isNew}, nil
}

// betterCanonical decides whether a new minimized member should replace
// the cluster's canonical artifact: fewer switches, then fewer
// decisions, then lexicographically smaller bytes — a total order, so
// the canonical pick is independent of ingestion order.
func betterCanonical(c *Cluster, res *minimize.Result, minData []byte) bool {
	if c.Canonical == nil {
		return true
	}
	if res.MinimalSwitches != c.MinimalSwitches {
		return res.MinimalSwitches < c.MinimalSwitches
	}
	if len(res.Decisions) != c.canonicalDecisions {
		return len(res.Decisions) < c.canonicalDecisions
	}
	return string(minData) < string(c.canonicalBytes)
}

// insertID inserts id into a sorted ID slice, keeping it sorted and
// deduplicated.
func insertID(ids []store.ID, id store.ID) []store.ID {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return ids
	}
	ids = append(ids, "")
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// failureKindOf inverts exec.FailureKind.String.
func failureKindOf(s string) exec.FailureKind {
	for k := exec.FailAssert; int(k) < exec.NumFailureKinds; k++ {
		if k.String() == s {
			return k
		}
	}
	return 0
}

// Clusters returns a deep copy of every cluster, sorted by ID.
func (t *Triager) Clusters() []*Cluster {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Cluster, 0, len(t.clusters))
	for _, c := range t.clusters {
		out = append(out, c.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Cluster returns a deep copy of one cluster, or nil if absent.
func (t *Triager) Cluster(id string) *Cluster {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.clusters[id]
	if !ok {
		return nil
	}
	return c.clone()
}

// Len returns the number of clusters.
func (t *Triager) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.clusters)
}

// Observer returns a campaign.ResultObserver-shaped hook that triages
// every failing execution live (the rffd integration point). Failures
// that cannot be triaged are dropped — the campaign outcome still
// records them.
func (t *Triager) Observer(tool string) func(res *exec.Result) {
	return func(res *exec.Result) {
		if res.Failure == nil {
			return
		}
		f := *res.Failure
		a := &core.Artifact{
			Program:     res.Program,
			Seed:        res.Seed,
			FailureKind: f.Kind.String(),
			FailureMsg:  f.Msg,
			FailureLoc:  f.Loc,
			Thread:      int32(f.Thread),
		}
		for _, d := range res.Trace.ThreadOrder() {
			a.Decisions = append(a.Decisions, int32(d))
		}
		t.Add(a, tool)
	}
}
