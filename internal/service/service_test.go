package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rff/internal/budget"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/sched"
	"rff/internal/store"
	"rff/internal/telemetry"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = st
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, req CampaignRequest) JobView {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e["error"])
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobView{}
}

func getBody(t *testing.T, ts *httptest.Server, path string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (%s)", path, resp.StatusCode, wantStatus, buf.String())
	}
	return buf.Bytes()
}

// sseEvent is one parsed Server-Sent Event frame.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// readSSE consumes the stream until it ends, the predicate matches, or
// the timeout lapses.
func readSSE(t *testing.T, ts *httptest.Server, path string, until func(sseEvent) bool) []sseEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseEvent{}) {
				events = append(events, cur)
				if until != nil && until(cur) {
					return events
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			cur.ID = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.Data = line[len("data: "):]
		}
	}
	return events
}

func isTerminalEvent(ev sseEvent) bool {
	return ev.Event == EvJobDone || ev.Event == EvJobFailed || ev.Event == EvJobCancelled
}

// TestEndToEnd is the acceptance path: submit a campaign against a
// benchmark with a known assertion bug, watch it complete over SSE,
// fetch the report and a crash artifact by content id, and replay the
// artifact's decision sequence to reproduce the original failure.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	v := submit(t, ts, CampaignRequest{
		Program: "CS/account",
		Tools:   []string{"rff"},
		Budget:  3000,
		Trials:  2,
		Seed:    7,
	})
	if v.State != JobQueued && v.State != JobRunning && v.State != JobDone {
		t.Fatalf("fresh job state %q", v.State)
	}
	if v.CacheHit {
		t.Fatal("fresh submission reported a cache hit")
	}

	// SSE stream (attached while running or after): must end with a
	// terminal event and start from event 1.
	events := readSSE(t, ts, "/v1/jobs/"+v.ID+"/events", isTerminalEvent)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	if events[0].ID != "1" {
		t.Fatalf("stream did not replay from the start: first id %s", events[0].ID)
	}
	last := events[len(events)-1]
	if last.Event != EvJobDone {
		t.Fatalf("terminal event %q, want %q (data: %s)", last.Event, EvJobDone, last.Data)
	}

	done := waitTerminal(t, ts, v.ID)
	if done.State != JobDone {
		t.Fatalf("job state %q (error %q)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Report == "" {
		t.Fatal("done job has no stored report")
	}

	// Report: CS/account under rff with this budget finds the bug.
	var res CampaignResult
	if err := json.Unmarshal(getBody(t, ts, "/v1/jobs/"+v.ID+"/report", 200), &res); err != nil {
		t.Fatal(err)
	}
	if res.BugsFound == 0 {
		t.Fatal("campaign found no bugs in CS/account")
	}
	if len(res.Artifacts) == 0 {
		t.Fatal("campaign stored no crash artifacts")
	}

	// Artifact: fetch by content id, decode, and replay. The recorded
	// decision sequence must reproduce the original failure kind.
	ref := res.Artifacts[0]
	raw := getBody(t, ts, "/v1/artifacts/"+string(ref.ID), 200)
	if got := store.SumID(raw); got != ref.ID {
		t.Fatalf("artifact content hash %s != advertised id %s", got, ref.ID)
	}
	art, err := core.DecodeArtifact(raw)
	if err != nil {
		t.Fatalf("decoding fetched artifact: %v", err)
	}
	prog, err := done.Request.Programs()
	if err != nil {
		t.Fatal(err)
	}
	replay := exec.Run(art.Program, prog[0].Body, exec.Config{
		Scheduler: sched.NewReplay(art.ThreadOrder()),
	})
	if replay.Failure == nil {
		t.Fatal("replaying the artifact reproduced no failure")
	}
	if got := replay.Failure.Kind.String(); got != ref.FailureKind {
		t.Fatalf("replayed failure kind %q, want %q", got, ref.FailureKind)
	}
}

// TestCacheHit submits the identical campaign twice: the second job must
// be served from the store without re-running, and the two fetched
// reports must be byte-identical. A different worker count must not
// break the hit — workers are an execution hint, not part of the key.
func TestCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := CampaignRequest{ProgenSeed: 42, ProgenCount: 2, Tools: []string{"rff", "random"}, Budget: 300, Trials: 2}

	first := submit(t, ts, req)
	done1 := waitTerminal(t, ts, first.ID)
	if done1.State != JobDone {
		t.Fatalf("first job: %s (%s)", done1.State, done1.Error)
	}
	if done1.CacheHit {
		t.Fatal("first submission was a cache hit")
	}
	report1 := getBody(t, ts, "/v1/jobs/"+first.ID+"/report", 200)

	req.Workers = 2 // execution hint: must not change the cache key
	second := submit(t, ts, req)
	if !second.CacheHit {
		t.Fatal("identical re-submission did not hit the cache")
	}
	if second.State != JobDone {
		t.Fatalf("cached job state %q, want done", second.State)
	}
	report2 := getBody(t, ts, "/v1/jobs/"+second.ID+"/report", 200)
	if !bytes.Equal(report1, report2) {
		t.Fatal("cached report differs from the original")
	}

	// The cached job's SSE stream still terminates for late subscribers.
	events := readSSE(t, ts, "/v1/jobs/"+second.ID+"/events", nil)
	if len(events) < 2 || events[0].Event != EvJobCached || events[len(events)-1].Event != EvJobDone {
		t.Fatalf("cached job events: %+v", events)
	}

	// A genuinely different campaign must miss.
	req.Workers = 0
	req.Seed = 99
	third := submit(t, ts, req)
	if third.CacheHit {
		t.Fatal("different seed hit the cache")
	}
	waitTerminal(t, ts, third.ID)
}

// TestSSELateSubscriber attaches to the event stream only after the job
// finished and must still see the complete history, in order, ending
// with the terminal event.
func TestSSELateSubscriber(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	v := submit(t, ts, CampaignRequest{ProgenSeed: 5, Budget: 200})
	waitTerminal(t, ts, v.ID)

	events := readSSE(t, ts, "/v1/jobs/"+v.ID+"/events", nil)
	if len(events) < 2 {
		t.Fatalf("late subscriber saw %d events", len(events))
	}
	for i, ev := range events {
		if want := fmt.Sprintf("%d", i+1); ev.ID != want {
			t.Fatalf("event %d has id %s, want %s", i, ev.ID, want)
		}
	}
	if events[0].Event != EvJobQueued {
		t.Fatalf("first event %q, want %q", events[0].Event, EvJobQueued)
	}
	if last := events[len(events)-1]; last.Event != EvJobDone {
		t.Fatalf("last event %q, want %q", last.Event, EvJobDone)
	}
}

// TestCancelRunning cancels an expensive job mid-run and expects the
// cancelled state with no cached entry.
func TestCancelRunning(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	v := submit(t, ts, CampaignRequest{
		Program: "CS/reorder_100",
		Budget:  MaxBudget,
		Trials:  MaxTrials,
	})
	// Wait until it is actually running so the cancel exercises the
	// context path, then cancel over HTTP.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := srv.Job(v.ID)
		if ok && j.State() == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	done := waitTerminal(t, ts, v.ID)
	if done.State != JobCancelled {
		t.Fatalf("state %q, want cancelled", done.State)
	}
	if done.Result != nil {
		t.Fatal("cancelled job cached a partial result")
	}
	getBody(t, ts, "/v1/jobs/"+v.ID+"/report", 404)
}

// TestValidation exercises the 400 surface of POST /v1/campaigns.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []string{
		`{}`, // no workload
		`{"program":"CS/account","progen_seed":3}`,         // both workloads
		`{"program":"no/such/program"}`,                    // unknown program
		`{"program":"CS/account","tools":["warp-drive"]}`,  // unknown tool
		`{"program":"CS/account","tools":["pct","pct:3"]}`, // duplicate after canonicalization
		`{"program":"CS/account","budget":-1}`,             // bad budget
		`{"progen_seed":1,"progen_count":1000}`,            // progen_count over cap
		`{"program":"CS/account","unknown_field":true}`,    // unknown field
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// And the 404 surface.
	getBody(t, ts, "/v1/jobs/nope", 404)
	getBody(t, ts, "/v1/jobs/nope/report", 404)
	getBody(t, ts, "/v1/artifacts/"+string(store.SumID([]byte("absent"))), 404)
	getBody(t, ts, "/v1/artifacts/not-a-hash", 400)
}

// TestToolsAndPrograms checks the discovery endpoints return parseable,
// non-empty listings, with /v1/tools matching rff tools -json's shape.
func TestToolsAndPrograms(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var tools []map[string]any
	if err := json.Unmarshal(getBody(t, ts, "/v1/tools", 200), &tools); err != nil {
		t.Fatal(err)
	}
	if len(tools) == 0 {
		t.Fatal("no tools listed")
	}
	names := make(map[string]bool)
	for _, tl := range tools {
		names[tl["name"].(string)] = true
	}
	for _, want := range []string{"rff", "random", "pct"} {
		if !names[want] {
			t.Errorf("tool %q missing from /v1/tools", want)
		}
	}
	var programs []map[string]any
	if err := json.Unmarshal(getBody(t, ts, "/v1/programs", 200), &programs); err != nil {
		t.Fatal(err)
	}
	if len(programs) == 0 {
		t.Fatal("no programs listed")
	}
}

// TestDrainPersistsQueue drains a server whose workers never started:
// the queued jobs must persist and a new server over the same store
// must restore them.
func TestDrainPersistsQueue(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): submissions enqueue but never execute, like jobs
	// arriving in a drain window.
	if _, err := srv.Submit(CampaignRequest{ProgenSeed: 11, Budget: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(CampaignRequest{ProgenSeed: 12, Budget: 100}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(CampaignRequest{ProgenSeed: 13}); err == nil {
		t.Fatal("draining server accepted a submission")
	}

	// A new daemon instance over the same data dir resumes the queue.
	srv2, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	jobs := srv2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("restored %d jobs, want 2", len(jobs))
	}
	srv2.Start()
	deadline := time.Now().Add(60 * time.Second)
	for _, j := range jobs {
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("restored job %s never finished", j.ID)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if j.State() != JobDone {
			t.Fatalf("restored job %s: %s", j.ID, j.State())
		}
	}
	drainCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv2.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	// Everything ran: the persisted queue must be gone.
	srv3, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(srv3.Jobs()); n != 0 {
		t.Fatalf("clean drain left %d persisted jobs", n)
	}
}

// TestQueueFull fills the bounded queue on an unstarted server and
// expects 503 on overflow.
func TestQueueFull(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: st, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := int64(1); i <= 2; i++ {
		submit(t, ts, CampaignRequest{ProgenSeed: i, Budget: 100})
	}
	body, _ := json.Marshal(CampaignRequest{ProgenSeed: 3, Budget: 100})
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: status %d, want 503", resp.StatusCode)
	}
}

// TestJobDeadline arms a tiny per-job deadline against a huge campaign
// and expects a non-done terminal state instead of a hang.
func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Options{JobDeadline: 50 * time.Millisecond})
	v := submit(t, ts, CampaignRequest{
		Program: "CS/reorder_100",
		Budget:  MaxBudget,
		Trials:  MaxTrials,
	})
	done := waitTerminal(t, ts, v.ID)
	if done.State == JobDone {
		t.Fatal("deadline-bound job completed a MaxBudget campaign in 50ms")
	}
	if done.Result != nil {
		t.Fatal("deadlined job cached a partial result")
	}
}

// TestRequestLog checks the logging middleware emits http-request
// events and counts requests on the daemon sink.
func TestRequestLog(t *testing.T) {
	hub := telemetry.NewHub()
	var buf bytes.Buffer
	hub.Events = telemetry.NewEventWriter(&buf)
	_, ts := newTestServer(t, Options{Telemetry: hub})
	getBody(t, ts, "/v1/healthz", 200)
	getBody(t, ts, "/v1/tools", 200)
	hub.Events.Flush()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("request log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if ev.Kind != EvHTTPRequest {
			t.Fatalf("event kind %q, want %q", ev.Kind, EvHTTPRequest)
		}
		if ev.Fields["method"] != "GET" {
			t.Fatalf("logged method %v", ev.Fields["method"])
		}
	}
}

// TestCanonicalizeDefaults pins the canonical form: defaults filled and
// alias specs rewritten, so equivalent submissions share a cache key.
func TestCanonicalizeDefaults(t *testing.T) {
	c, err := CampaignRequest{Program: "CS/account", Tools: []string{"pct"}}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Budget != 2000 || c.Trials != 1 || c.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if len(c.Tools) != 1 || !strings.HasPrefix(c.Tools[0], "pct:") {
		t.Fatalf("pct did not canonicalize: %v", c.Tools)
	}
	k1, _, err := c.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CampaignRequest{Program: "CS/account", Tools: []string{c.Tools[0]}, Budget: 2000, Trials: 1, Seed: 1, Workers: 8}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := c2.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("equivalent requests derived different cache keys")
	}
}

// TestDrainDoesNotFlipCompletedJob pins the drain-race fix: a job whose
// campaign fully completed (blobs persisted) before the drain cancelled
// its context must finish done and indexed, not cancelled — flipping it
// used to orphan its stored artifacts and requeue the whole campaign.
func TestDrainDoesNotFlipCompletedJob(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: st, MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the server's base context in the window between the
	// campaign finishing and the terminal state being recorded — the
	// exact interleaving a drain deadline produces.
	srv.testAfterRun = func() { srv.stop() }
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v := submit(t, ts, CampaignRequest{
		Program: "CS/account",
		Tools:   []string{"rff"},
		Budget:  2000,
		Trials:  1,
		Seed:    7,
	})
	done := waitTerminal(t, ts, v.ID)
	if done.State != JobDone {
		t.Fatalf("completed job flipped to %q (error %q)", done.State, done.Error)
	}
	if done.Result == nil {
		t.Fatal("done job has no stored result")
	}
	entry := srv.index.Get(done.Result.Key)
	if entry == nil {
		t.Fatal("completed job has no index entry — artifacts orphaned")
	}
	for _, id := range append([]store.ID{entry.Report}, entry.Artifacts...) {
		if !st.Has(id) {
			t.Fatalf("index references missing blob %s", id)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The job completed; nothing should have been requeued for the next
	// daemon instance.
	if _, err := New(Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	if n := len(srv.Jobs()); n != 1 {
		t.Fatalf("expected 1 job, got %d", n)
	}
}

// TestVerifyIndexDropsOrphans: startup must drop index entries whose
// blobs are missing (the leftovers of an interrupted persist), and keep
// healthy ones.
func TestVerifyIndexDropsOrphans(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := store.OpenIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	report, err := st.Put([]byte(`{"ok":true}`))
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := st.Put([]byte(`{"artifact":1}`))
	if err != nil {
		t.Fatal(err)
	}
	healthy := store.SumID([]byte("healthy"))
	noReport := store.SumID([]byte("no-report"))
	noArtifact := store.SumID([]byte("no-artifact"))
	for _, e := range []*store.Entry{
		{Key: healthy, Report: report, Artifacts: []store.ID{artifact}},
		{Key: noReport, Report: store.SumID([]byte("missing blob"))},
		{Key: noArtifact, Report: report, Artifacts: []store.ID{store.SumID([]byte("gone"))}},
	} {
		if err := idx.Put(e); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := New(Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if srv.index.Get(healthy) == nil {
		t.Fatal("healthy entry dropped")
	}
	if srv.index.Get(noReport) != nil {
		t.Fatal("entry with a missing report survived")
	}
	if srv.index.Get(noArtifact) != nil {
		t.Fatal("entry with a missing artifact survived")
	}
	// The cleanup persisted: a re-opened index agrees.
	idx2, err := store.OpenIndex(st)
	if err != nil {
		t.Fatal(err)
	}
	if idx2.Len() != 1 {
		t.Fatalf("persisted index has %d entries, want 1", idx2.Len())
	}
}

// TestTriageIntegration: with TriageDir set, a completed campaign's
// artifacts are clustered in the background, served by /v1/clusters,
// and persisted as a regression corpus that survives a restart.
func TestTriageIntegration(t *testing.T) {
	triageDir := t.TempDir()
	hub := telemetry.NewHub()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Options{Store: st, TriageDir: triageDir, Telemetry: hub})
	// Set before the submit below; the job queue hand-off orders this
	// write before the worker's read.
	triaged := make(chan struct{}, 1)
	srv.testAfterTriage = func() { triaged <- struct{}{} }

	v := submit(t, ts, CampaignRequest{
		Program: "CS/account",
		Tools:   []string{"rff"},
		Budget:  3000,
		Trials:  2,
		Seed:    7,
	})
	done := waitTerminal(t, ts, v.ID)
	if done.State != JobDone {
		t.Fatalf("job state %q (error %q)", done.State, done.Error)
	}

	// Triage runs on the worker after the job seals. The clusters show up
	// at Add, before the corpus is saved, so wait for the save itself.
	select {
	case <-triaged:
	case <-time.After(30 * time.Second):
		t.Fatal("triage did not finish within 30s")
	}
	if srv.triager.Len() == 0 {
		t.Fatal("no clusters after a bug-finding campaign")
	}

	var rep struct {
		Clusters []struct {
			Cluster struct {
				ID   string `json:"id"`
				Hits int    `json:"hits"`
			} `json:"cluster"`
			Replay string `json:"replay"`
		} `json:"clusters"`
	}
	if err := json.Unmarshal(getBody(t, ts, "/v1/clusters", 200), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Clusters) == 0 {
		t.Fatal("/v1/clusters returned no clusters")
	}
	first := rep.Clusters[0]
	if first.Cluster.Hits == 0 || first.Replay == "" {
		t.Fatalf("bad cluster row: %+v", first)
	}

	var detail struct {
		ID        string         `json:"id"`
		Canonical *core.Artifact `json:"canonical"`
	}
	if err := json.Unmarshal(getBody(t, ts, "/v1/clusters/"+first.Cluster.ID, 200), &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Canonical == nil || detail.Canonical.Program != "CS/account" {
		t.Fatalf("cluster detail missing canonical artifact: %+v", detail)
	}
	getBody(t, ts, "/v1/clusters/c-000000000000", 404)

	// triage_* telemetry reached the daemon sink.
	snap := hub.Snapshot()
	data, err := snap.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(telemetry.MTriageClusters)) {
		t.Errorf("metrics snapshot lacks %s:\n%s", telemetry.MTriageClusters, data)
	}

	// The corpus persisted and reloads into a fresh daemon.
	srv2, err := New(Options{Store: st, TriageDir: triageDir})
	if err != nil {
		t.Fatal(err)
	}
	if srv2.triager.Len() != srv.triager.Len() {
		t.Fatalf("restarted daemon loaded %d clusters, want %d", srv2.triager.Len(), srv.triager.Len())
	}
}

// TestClustersUnavailableWithoutTriage: the endpoints 503 when the
// daemon runs without -triage.
func TestClustersUnavailableWithoutTriage(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	getBody(t, ts, "/v1/clusters", 503)
	getBody(t, ts, "/v1/clusters/c-000000000000", 503)
}

// TestBudgetedCampaign runs a campaign under an adaptive budget policy:
// the stored report must carry the allocator's accounting, the policy
// must be part of the cache key (same campaign under a different policy
// misses), and invalid budget requests must be rejected at Submit.
func TestBudgetedCampaign(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	req := CampaignRequest{
		Program:      "CS/account",
		Tools:        []string{"rff", "random"},
		Budget:       500,
		Trials:       2,
		Seed:         7,
		BudgetPolicy: "ucb",
		BudgetEpochs: 4,
	}
	v := submit(t, ts, req)
	done := waitTerminal(t, ts, v.ID)
	if done.State != JobDone {
		t.Fatalf("job state %q (error %q)", done.State, done.Error)
	}
	if done.Request.BudgetPolicy != "ucb" || done.Request.BudgetEpochs != 4 {
		t.Fatalf("canonical request lost the budget config: %+v", done.Request)
	}

	var res CampaignResult
	if err := json.Unmarshal(getBody(t, ts, "/v1/jobs/"+v.ID+"/report", 200), &res); err != nil {
		t.Fatal(err)
	}
	if res.BudgetReport == nil {
		t.Fatal("budgeted campaign's report has no budget_report")
	}
	br := res.BudgetReport
	// Epochs in the report is the count actually executed — the
	// allocator stops early once every cell is done.
	if br.Policy != "ucb" || br.Epochs < 1 || br.Epochs > 4 {
		t.Fatalf("budget report policy/epochs = %s/%d, want ucb/1..4", br.Policy, br.Epochs)
	}
	if len(br.Cells) != len(res.Tools)*len(res.Programs) {
		t.Fatalf("budget report has %d cells, want %d", len(br.Cells), len(res.Tools)*len(res.Programs))
	}
	if br.Spent <= 0 || br.Spent > br.Pool {
		t.Fatalf("budget report spent %d of pool %d", br.Spent, br.Pool)
	}

	// Same campaign, different policy: a distinct computation, so a
	// cache miss. Epochs default when omitted.
	req2 := req
	req2.BudgetPolicy = "eps-greedy"
	req2.BudgetEpochs = 0
	v2 := submit(t, ts, req2)
	if v2.CacheHit {
		t.Fatal("different budget policy hit the cache")
	}
	done2 := waitTerminal(t, ts, v2.ID)
	if done2.State != JobDone {
		t.Fatalf("second job state %q (error %q)", done2.State, done2.Error)
	}
	if done2.Request.BudgetEpochs != budget.DefaultEpochs {
		t.Fatalf("budget_epochs defaulted to %d, want %d", done2.Request.BudgetEpochs, budget.DefaultEpochs)
	}

	// Identical budgeted re-submission: a hit.
	again := submit(t, ts, req)
	if !again.CacheHit {
		t.Fatal("identical budgeted re-submission did not hit the cache")
	}

	// Invalid budget configurations are rejected at the API boundary.
	bad := []string{
		`{"program":"CS/account","budget_policy":"warp-drive"}`,               // unknown policy
		`{"program":"CS/account","budget_epochs":4}`,                          // epochs without policy
		`{"program":"CS/account","budget_policy":"ucb","shards":2}`,           // budgeted + sharded
		`{"program":"CS/account","budget_policy":"ucb","budget_epochs":1000}`, // epochs over cap
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}
