package exec

// Leak invariant for the carrier pool: after every kind of execution
// outcome, the process holds exactly its baseline goroutines plus the idle
// carriers, and the idle list never exceeds maxIdleCarriers.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// lastEnabled always picks the highest-ID enabled thread, so a spawned
// thread begins (and takes a carrier) as soon as it exists.
type lastEnabled struct{ firstEnabled }

func (lastEnabled) Pick(v *View) int { return len(v.Enabled) - 1 }

// cancelAt is lastEnabled that cancels its context when asked to pick at
// step n; the engine must notice the cancel before the next step.
type cancelAt struct {
	lastEnabled
	n      int
	cancel context.CancelFunc
}

func (s cancelAt) Pick(v *View) int {
	if v.Step >= s.n {
		s.cancel()
	}
	return s.lastEnabled.Pick(v)
}

// parkedWorkers spawns n workers that each block on m, held by the caller,
// so every outcome below tears down parked carriers, not only exited ones.
func parkedWorkers(t *Thread, n int) *Mutex {
	m := t.NewMutex("held")
	t.Lock(m)
	for i := 0; i < n; i++ {
		t.Go(fmt.Sprintf("w%d", i), func(t *Thread) {
			t.Lock(m)
			t.Unlock(m)
		})
	}
	return m
}

type leakCase struct {
	name     string
	body     Program
	maxSteps int
	// cancelStep, if positive, cancels Config.Ctx at that step.
	cancelStep int
	check      func(*Result) error
}

func wantFailure(kind FailureKind, msg string) func(*Result) error {
	return func(r *Result) error {
		if r.Failure == nil || r.Failure.Kind != kind || (msg != "" && r.Failure.Msg != msg) {
			return fmt.Errorf("failure = %v, want %v %q", r.Failure, kind, msg)
		}
		return nil
	}
}

var leakCases = []leakCase{
	{name: "ok", body: func(t *Thread) {
		m := parkedWorkers(t, 3)
		t.Unlock(m)
	}, check: func(r *Result) error {
		if r.Failure != nil || r.Truncated || r.Cancelled {
			return fmt.Errorf("want a clean run, got %+v", r)
		}
		return nil
	}},
	{name: "assert", body: func(t *Thread) {
		parkedWorkers(t, 3)
		t.Assert(false, "boom")
	}, check: wantFailure(FailAssert, "boom")},
	{name: "deadlock", body: func(t *Thread) {
		t.Lock(parkedWorkers(t, 3)) // already held by main itself
	}, check: wantFailure(FailDeadlock, "")},
	{name: "put-panic", body: func(t *Thread) {
		parkedWorkers(t, 3)
		var s []int
		_ = s[len(s)]
	}, check: wantFailure(FailPanic, "")},
	{name: "misuse", body: func(t *Thread) {
		parkedWorkers(t, 3)
		t.Unlock(t.NewMutex("free"))
	}, check: wantFailure(FailPanic, "")},
	{name: "truncation", maxSteps: 40, body: func(t *Thread) {
		parkedWorkers(t, 3)
		for {
			t.Yield()
		}
	}, check: func(r *Result) error {
		if !r.Truncated {
			return fmt.Errorf("want truncation, got %+v", r)
		}
		return nil
	}},
	{name: "ctx-cancel", cancelStep: 12, body: func(t *Thread) {
		parkedWorkers(t, 3)
		for {
			t.Yield()
		}
	}, check: func(r *Result) error {
		if !r.Cancelled {
			return fmt.Errorf("want cancellation, got %+v", r)
		}
		return nil
	}},
	{name: "goexit", body: func(t *Thread) {
		parkedWorkers(t, 3)
		t.JoinAll(t.Go("quitter", func(t *Thread) {
			t.Yield()
			runtime.Goexit()
		}))
	}, check: wantFailure(FailPanic, goexitMsg)},
	{name: "over-cap", body: func(t *Thread) {
		// More live threads than the idle list holds: the surplus
		// carriers must be stopped, not pooled.
		m := parkedWorkers(t, maxIdleCarriers+20)
		t.Unlock(m)
	}, check: func(r *Result) error {
		if r.Failure != nil || r.Truncated {
			return fmt.Errorf("want a clean run, got %+v", r)
		}
		return nil
	}},
}

func runLeakCase(c leakCase) *Result {
	cfg := Config{Scheduler: lastEnabled{}, MaxSteps: c.maxSteps}
	if c.cancelStep > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.Ctx = ctx
		cfg.Scheduler = cancelAt{n: c.cancelStep, cancel: cancel}
	}
	return Run(c.name, c.body, cfg)
}

// idleCarriers reports the idle list's length.
func idleCarriers() int {
	carriers.Lock()
	defer carriers.Unlock()
	return len(carriers.idle)
}

// settledGoroutines polls until the goroutine count equals want (a
// stopped Goexit carrier finishes on a throwaway goroutine) and returns
// the last count seen.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// settledBaseline returns the goroutine count net of the idle carriers
// once it has held still for 20 ms: a goroutine an earlier test stopped
// (a Goexit carrier's throwaway goroutine, say) may still be exiting, and
// counting it would inflate the baseline every later check compares to.
func settledBaseline() int {
	const still = 20 * time.Millisecond
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine() - idleCarriers()
	since := time.Now()
	for time.Since(since) < still && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine() - idleCarriers(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

func checkPool(t *testing.T, baseline int, when string) {
	t.Helper()
	idle := idleCarriers()
	if idle > maxIdleCarriers {
		t.Errorf("%s: %d idle carriers exceed the cap %d", when, idle, maxIdleCarriers)
	}
	if n := settledGoroutines(baseline + idle); n != baseline+idle {
		t.Errorf("%s: %d goroutines, want baseline %d + %d idle carriers", when, n, baseline, idle)
	}
}

func TestCarrierLeakInvariant(t *testing.T) {
	baseline := settledBaseline()
	for _, c := range leakCases {
		res := runLeakCase(c)
		if err := c.check(res); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		checkPool(t, baseline, c.name)
	}
}

func TestCarrierLeakInvariantConcurrent(t *testing.T) {
	baseline := settledBaseline()
	const engines = 4
	var wg sync.WaitGroup
	errs := make(chan error, engines*len(leakCases))
	for g := 0; g < engines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range leakCases {
				c := leakCases[(i+g)%len(leakCases)]
				if err := c.check(runLeakCase(c)); err != nil {
					errs <- fmt.Errorf("engine %d, %s: %v", g, c.name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkPool(t, baseline, "after concurrent engines")
}

// TestGoexitInThreadBody pins the Goexit contract: a thread body calling
// runtime.Goexit (testing.T.FailNow inside a PUT, say) fails the
// execution with FailPanic instead of killing the goroutine that called
// Run, on main as on a spawned thread.
func TestGoexitInThreadBody(t *testing.T) {
	for _, tc := range []struct {
		name   string
		body   Program
		thread ThreadID
	}{
		{"main", func(t *Thread) {
			t.Yield()
			runtime.Goexit()
		}, 1},
		{"child", func(t *Thread) {
			x := t.NewVar("x", 0)
			c := t.Go("c", func(t *Thread) {
				t.Write(x, 1)
				runtime.Goexit()
			})
			t.Join(c)
			t.Write(x, 2)
		}, 2},
	} {
		res := Run(tc.name, tc.body, Config{Scheduler: firstEnabled{}})
		f := res.Failure
		if f == nil || f.Kind != FailPanic || f.Msg != goexitMsg || f.Thread != tc.thread {
			t.Errorf("%s: failure = %v, want %v %q on thread %d", tc.name, f, FailPanic, goexitMsg, tc.thread)
		}
	}
}
