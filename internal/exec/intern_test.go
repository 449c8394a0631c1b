package exec_test

// Black-box determinism tests for the campaign-shared intern table: a
// fixed program and seed must assign identical dense IDs (and identical
// signature streams) across independent campaigns, because feedback state
// keyed on those IDs is compared across runs and golden files.

import (
	"reflect"
	"strconv"
	"sync"
	"testing"

	"rff/internal/exec"
	"rff/internal/sched"
)

// racyProg produces a healthy variety of abstract events and interleaving-
// dependent reads-from pairs.
func racyProg(t *exec.Thread) {
	x := t.NewVar("x", 0)
	y := t.NewVar("y", 0)
	m := t.NewMutex("m")
	w := t.Go("w", func(t *exec.Thread) {
		t.Lock(m)
		t.Write(x, 1)
		t.Unlock(m)
		t.Write(y, 1)
	})
	r := t.Go("r", func(t *exec.Thread) {
		if t.Read(y) == 1 {
			t.Lock(m)
			_ = t.Read(x)
			t.Unlock(m)
		}
		t.Write(x, 2)
	})
	t.JoinAll(w, r)
}

// campaign runs n POS executions with deterministic per-run seeds through
// the given table, returning every execution's signature.
func campaign(t *testing.T, table *exec.InternTable, n int) []uint64 {
	t.Helper()
	s := sched.NewPOS()
	sigs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		res := exec.Run("racy", racyProg, exec.Config{
			Scheduler: s,
			Seed:      int64(i)*2654435761 + 17,
			Intern:    table,
		})
		if res.Failure != nil {
			t.Fatalf("run %d failed: %v", i, res.Failure)
		}
		sigs = append(sigs, res.Trace.RFSignature())
	}
	return sigs
}

func TestInternTableDeterministicAcrossCampaigns(t *testing.T) {
	const n = 50
	ta, tb := exec.NewInternTable(), exec.NewInternTable()
	sa := campaign(t, ta, n)
	sb := campaign(t, tb, n)

	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("per-execution signatures diverge between identical campaigns")
	}
	// The tables must have assigned the same IDs to the same events, in
	// the same first-intern order.
	ea, eb := ta.Events(), tb.Events()
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("intern tables diverge:\n  a: %v\n  b: %v", ea, eb)
	}
	if ta.Len() == 0 {
		t.Fatal("campaign interned no events")
	}
	for i, ae := range ea {
		if id := tb.Intern(ae); id != exec.EventID(i) {
			t.Fatalf("event %v has ID %d in table a but %d in table b", ae, i, id)
		}
	}
}

// TestSummarySurvivesReclaim pins the Reclaim contract the sharded
// merge relies on: a Summary obtained before its trace is reclaimed
// stays valid after the recycler hands the trace's arrays to the next
// execution.
func TestSummarySurvivesReclaim(t *testing.T) {
	rec := exec.NewRecycler()
	table := exec.NewInternTable()
	run := func(seed int64) *exec.Trace {
		return exec.Run("racy", racyProg, exec.Config{Scheduler: sched.NewPOS(), Seed: seed, Intern: table, Recycle: rec}).Trace
	}
	tr := run(1)
	s := tr.Summary()
	want := exec.Summary{
		Pairs:    append([]exec.RFPair(nil), s.Pairs...),
		PairIDs:  append([]exec.PairID(nil), s.PairIDs...),
		Events:   append([]exec.AbstractEvent(nil), s.Events...),
		EventIDs: append([]exec.EventID(nil), s.EventIDs...),
		Sig:      s.Sig,
		Table:    s.Table,
	}
	if len(want.Pairs) == 0 || len(want.Events) == 0 {
		t.Fatal("summary is empty; the check would cover nothing")
	}
	rec.Reclaim(tr)
	for seed := int64(2); seed < 6; seed++ {
		next := run(seed)
		next.Summary()
		rec.Reclaim(next)
	}
	if !reflect.DeepEqual(*s, want) {
		t.Fatalf("held summary changed after Reclaim:\n  got  %+v\n  want %+v", *s, want)
	}
}

// TestInternTableConcurrent interns overlapping events from several
// goroutines at once, as a campaign's shards do: every goroutine must
// see one ID per event, and the IDs must stay dense.
func TestInternTableConcurrent(t *testing.T) {
	const workers, events = 4, 200
	table := exec.NewInternTable()
	evs := make([]exec.AbstractEvent, events)
	for i := range evs {
		evs[i] = exec.AbstractEvent{Op: exec.OpRead, Var: "v" + strconv.Itoa(i%7), Loc: "c.go:" + strconv.Itoa(i)}
	}
	ids := make([][]exec.EventID, workers)
	var wg sync.WaitGroup
	for w := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[w] = make([]exec.EventID, events)
			for i := range evs {
				j := (i + w*events/workers) % events // each worker starts elsewhere
				ids[w][j] = table.Intern(evs[j])
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(ids[w], ids[0]) {
			t.Fatalf("worker %d saw IDs %v, worker 0 saw %v", w, ids[w], ids[0])
		}
	}
	if table.Len() != events {
		t.Fatalf("Len = %d, want %d", table.Len(), events)
	}
	want := make(map[exec.AbstractEvent]exec.EventID, events)
	for i, ae := range evs {
		want[ae] = ids[0][i]
	}
	for id, ae := range table.Events() {
		if want[ae] != exec.EventID(id) {
			t.Fatalf("Events()[%d] = %v, which was interned as %d", id, ae, want[ae])
		}
	}
}
