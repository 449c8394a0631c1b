package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rff/internal/fleet"
	"rff/internal/telemetry"
)

// squareCells builds n deterministic cells; cell i returns i*i.
func squareCells(n int) []fleet.Cell[int] {
	cells := make([]fleet.Cell[int], n)
	for i := range cells {
		i := i
		cells[i] = fleet.Cell[int]{
			ID: fmt.Sprintf("sq[%d]", i),
			Run: func(context.Context) (int, error) {
				// Skew cell durations so completion order differs from
				// submission order under concurrency.
				if i%3 == 0 {
					time.Sleep(time.Millisecond)
				}
				return i * i, nil
			},
		}
	}
	return cells
}

func TestRunMergesInCellOrder(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		results := fleet.Run(context.Background(), squareCells(n), fleet.Options{Workers: workers})
		if len(results) != n {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(results), n)
		}
		for i, r := range results {
			if r.Err != nil || r.Value != i*i {
				t.Fatalf("workers=%d: results[%d] = %+v, want value %d", workers, i, r, i*i)
			}
			if r.Cell != fmt.Sprintf("sq[%d]", i) {
				t.Fatalf("workers=%d: results[%d] carries wrong cell id %q", workers, i, r.Cell)
			}
		}
	}
}

func TestPanicContainment(t *testing.T) {
	cells := squareCells(9)
	cells[4].Run = func(context.Context) (int, error) {
		panic("cell blew up")
	}
	results := fleet.Run(context.Background(), cells, fleet.Options{Workers: 3})
	for i, r := range results {
		if i == 4 {
			if !r.Panicked || r.Err == nil || !strings.Contains(r.Err.Error(), "cell blew up") {
				t.Fatalf("panicking cell not contained: %+v", r)
			}
			if !strings.Contains(r.Stack, "TestPanicContainment") {
				t.Fatalf("stack does not reach the panic site:\n%s", r.Stack)
			}
			if strings.HasPrefix(r.Stack, "goroutine ") {
				t.Fatalf("stack kept its nondeterministic goroutine header:\n%s", r.Stack)
			}
			continue
		}
		if r.Err != nil || r.Value != i*i {
			t.Fatalf("sibling cell %d harmed by panic: %+v", i, r)
		}
	}
}

func TestCellError(t *testing.T) {
	boom := errors.New("boom")
	cells := []fleet.Cell[int]{{ID: "bad", Run: func(context.Context) (int, error) {
		return 0, boom
	}}}
	results := fleet.Run(context.Background(), cells, fleet.Options{})
	if !errors.Is(results[0].Err, boom) || results[0].Panicked {
		t.Fatalf("cell error mangled: %+v", results[0])
	}
}

func TestAtMostWorkersCellsRunAtOnce(t *testing.T) {
	const n, workers = 40, 4
	var running, highWater atomic.Int64
	cells := make([]fleet.Cell[int], n)
	for i := range cells {
		cells[i] = fleet.Cell[int]{Run: func(context.Context) (int, error) {
			now := running.Add(1)
			defer running.Add(-1)
			for {
				hw := highWater.Load()
				if now <= hw || highWater.CompareAndSwap(hw, now) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			return 0, nil
		}}
	}
	fleet.Run(context.Background(), cells, fleet.Options{Workers: workers})
	if hw := highWater.Load(); hw < 1 || hw > workers {
		t.Fatalf("%d cells ran at once, want 1..%d", hw, workers)
	}
}

func TestCancelledContextSkipsUnstartedCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	cells := []fleet.Cell[int]{
		{ID: "running", Run: func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		}},
		{ID: "skipped", Run: func(context.Context) (int, error) {
			return 2, nil
		}},
	}
	go func() {
		<-started
		cancel()
		close(release)
	}()
	results := fleet.Run(ctx, cells, fleet.Options{Workers: 1})
	if results[0].Err != nil || results[0].Value != 1 {
		t.Fatalf("in-flight cell should finish: %+v", results[0])
	}
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Fatalf("unstarted cell should report cancellation: %+v", results[1])
	}
}

func TestCellTimeout(t *testing.T) {
	cells := []fleet.Cell[int]{{ID: "slow", Run: func(ctx context.Context) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(10 * time.Second):
			return 1, nil
		}
	}}}
	start := time.Now()
	results := fleet.Run(context.Background(), cells, fleet.Options{CellTimeout: 10 * time.Millisecond})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("deadline not delivered: %+v", results[0])
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cell deadline did not interrupt the cell")
	}
}

func TestProgressSerializedAndMonotone(t *testing.T) {
	const n = 30
	var calls []int
	results := fleet.Run(context.Background(), squareCells(n), fleet.Options{
		Workers: 4,
		// OnDone calls are serialized by the pool, so appending without
		// a lock here is race-free by contract (the race detector run in
		// CI would flag a violation).
		OnDone: func(done, total int) {
			if total != n {
				t.Errorf("OnDone total = %d, want %d", total, n)
			}
			calls = append(calls, done)
		},
	})
	if len(results) != n || len(calls) != n {
		t.Fatalf("%d results, %d progress calls, want %d of each", len(results), len(calls), n)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress counts not strictly increasing: %v", calls)
		}
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	// Seed-style mixing in each cell: any cross-cell leakage or merge
	// reordering shows up as a value mismatch.
	mk := func() []fleet.Cell[uint64] {
		cells := make([]fleet.Cell[uint64], 64)
		for i := range cells {
			i := i
			cells[i] = fleet.Cell[uint64]{Run: func(context.Context) (uint64, error) {
				z := uint64(i) * 0x9E3779B97F4A7C15
				for k := 0; k < 1000; k++ {
					z ^= z >> 13
					z *= 0xBF58476D1CE4E5B9
				}
				return z, nil
			}}
		}
		return cells
	}
	base := fleet.Run(context.Background(), mk(), fleet.Options{Workers: 1})
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := fleet.Run(context.Background(), mk(), fleet.Options{Workers: workers})
		for i := range base {
			if got[i].Value != base[i].Value {
				t.Fatalf("workers=%d: cell %d diverged", workers, i)
			}
		}
	}
}

func TestFleetTelemetry(t *testing.T) {
	hub := telemetry.NewHub()
	const n = 20
	fleet.Run(context.Background(), squareCells(n), fleet.Options{Workers: 4, Telemetry: hub})
	snap := hub.Snapshot()
	if got := snap.Total(telemetry.MFleetCellsDone); got != n {
		t.Fatalf("fleet_cells_done = %d, want %d", got, n)
	}
	if h := snap.Histogram(telemetry.MFleetCellDuration); h == nil || h.Count != n {
		t.Fatalf("fleet_cell_duration = %+v, want %d observations", h, n)
	}
	if got := snap.Value(telemetry.MFleetWorkersBusy); got != 0 {
		t.Fatalf("fleet_workers_busy = %d after the barrier, want 0", got)
	}
	if util := snap.Value(telemetry.MFleetUtilization); util < 0 || util > 100 {
		t.Fatalf("fleet_utilization_pct = %d, want 0-100", util)
	}
}

func TestEmptyAndOversizedPool(t *testing.T) {
	if got := fleet.Run[int](context.Background(), nil, fleet.Options{Workers: 8}); len(got) != 0 {
		t.Fatalf("empty cell list produced %d results", len(got))
	}
	// More workers than cells must not deadlock or drop results.
	results := fleet.Run(context.Background(), squareCells(3), fleet.Options{Workers: 64})
	for i, r := range results {
		if r.Err != nil || r.Value != i*i {
			t.Fatalf("oversized pool broke cell %d: %+v", i, r)
		}
	}
}
