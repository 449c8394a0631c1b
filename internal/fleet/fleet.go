// Package fleet is the parallel campaign orchestrator: it decomposes a
// batch of independent work items ("cells") onto a bounded worker pool
// and deterministically merges the results back into submission order.
//
// A cell is one (tool, program, trial) trial of the evaluation matrix,
// one distribution profile, or any other self-contained unit whose
// result depends only on its own inputs. The pool guarantees:
//
//   - Deterministic merge: Run returns results indexed exactly like the
//     submitted cells, whatever order workers completed them in. A
//     caller whose cells are themselves deterministic (fixed seeds, no
//     shared mutable state) gets bit-identical output at any worker
//     count.
//   - Isolation: at most Options.Workers cells run at once, and cells
//     share nothing through the pool; a cell that needs per-run state
//     builds its own.
//   - Containment: a panicking cell is recovered with its stack and
//     reported as that cell's error; sibling cells are unaffected.
//   - Cancellation: the pool's context cancels unstarted cells, and
//     Options.CellTimeout arms a per-cell deadline that context-aware
//     cells observe mid-run.
//
// Telemetry under concurrency follows one rule: per-cell series
// (duration histogram, busy gauge) are updated live through the sink's
// atomic registry, while aggregate counters (cells completed per
// worker) are accumulated locally and merged at the barrier, so a
// snapshot taken after Run is independent of scheduling order.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rff/internal/telemetry"
)

// Cell is one independent unit of work.
type Cell[T any] struct {
	// ID names the cell in telemetry and results ("RFF/CS/account[2]").
	ID string
	// Spec, if non-empty, is the canonical strategy name behind the cell
	// (e.g. "PCT3"); the pool labels the cell's duration series with it,
	// so a snapshot separates per-strategy timing.
	Spec string
	// Run executes the cell. ctx carries the pool's cancellation and,
	// when Options.CellTimeout is set, this cell's deadline; cells that
	// cannot observe ctx mid-run simply ignore it.
	Run func(ctx context.Context) (T, error)
}

// Result is the outcome of one cell.
type Result[T any] struct {
	// Cell echoes the cell's ID.
	Cell string
	// Value is Run's return value (the zero value when the cell errored,
	// panicked, or was cancelled before starting).
	Value T
	// Err is the cell's failure: Run's returned error, the recovered
	// panic, or ctx.Err() when the pool was cancelled first.
	Err error
	// Panicked reports whether Err came from a recovered panic.
	Panicked bool
	// Stack is the panic stack, scrubbed of its nondeterministic
	// "goroutine N" header (empty unless Panicked).
	Stack string
	// Duration is the cell's wall-clock time (zero if never started).
	Duration time.Duration
}

// Options configures a pool run.
type Options struct {
	// Workers bounds concurrent cells (0 = GOMAXPROCS). The pool never
	// spawns more workers than cells.
	Workers int
	// CellTimeout, if positive, arms a deadline on each cell's context.
	// Cells already past the deadline when a worker reaches them fail
	// immediately with context.DeadlineExceeded; running cells must
	// observe ctx themselves to stop early.
	CellTimeout time.Duration
	// OnDone, if non-nil, is called after each completed cell with the
	// running completion count. Calls are serialized and the count is
	// strictly increasing, but cells complete in any order.
	OnDone func(done, total int)
	// Telemetry, if non-nil, receives the fleet metrics: the
	// fleet_cells_done counter and fleet_cell_duration histogram,
	// the fleet_workers_busy live gauge, and the fleet_utilization_pct
	// gauge set at the barrier.
	Telemetry telemetry.Sink
}

// Run executes every cell on a bounded worker pool and returns their
// results in cell order. It blocks until all cells have completed (or
// been skipped by cancellation); it never returns early.
func Run[T any](ctx context.Context, cells []Cell[T], opts Options) []Result[T] {
	n := len(cells)
	results := make([]Result[T], n)
	if n == 0 {
		return results
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next       atomic.Int64 // index of the next unclaimed cell
		busy       atomic.Int64 // workers currently inside a cell
		busyNS     atomic.Int64 // total nanoseconds spent inside cells
		progressMu sync.Mutex
		done       int
		wg         sync.WaitGroup
	)
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cellsDone int64
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				if t := opts.Telemetry; t != nil {
					t.Set(telemetry.MFleetWorkersBusy, busy.Add(1))
				}
				res := runCell(ctx, cells[i], opts.CellTimeout)
				if t := opts.Telemetry; t != nil {
					t.Set(telemetry.MFleetWorkersBusy, busy.Add(-1))
					if spec := cells[i].Spec; spec != "" {
						t.Observe(telemetry.MFleetCellDuration, res.Duration.Microseconds(), telemetry.L("spec", spec))
					} else {
						t.Observe(telemetry.MFleetCellDuration, res.Duration.Microseconds())
					}
				}
				busyNS.Add(res.Duration.Nanoseconds())
				cellsDone++
				results[i] = res
				if opts.OnDone != nil {
					progressMu.Lock()
					done++
					opts.OnDone(done, n)
					progressMu.Unlock()
				}
			}
			// Aggregate counters merge at the barrier: one Add per
			// worker, so a post-Run snapshot sees the same totals at
			// any worker count and completion order.
			if t := opts.Telemetry; t != nil && cellsDone > 0 {
				t.Add(telemetry.MFleetCellsDone, cellsDone)
			}
		}()
	}
	wg.Wait()
	if t := opts.Telemetry; t != nil {
		t.Set(telemetry.MFleetWorkersBusy, 0)
		if wall := time.Since(start).Nanoseconds(); wall > 0 {
			util := busyNS.Load() * 100 / (wall * int64(workers))
			if util > 100 {
				util = 100 // rounding at tiny wall-clocks
			}
			t.Set(telemetry.MFleetUtilization, util)
		}
	}
	return results
}

// runCell executes one cell with panic containment and its deadline.
func runCell[T any](ctx context.Context, c Cell[T], timeout time.Duration) (res Result[T]) {
	res.Cell = c.ID
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	defer func() {
		res.Duration = time.Since(start)
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("panic: %v", r)
			res.Panicked = true
			res.Stack = scrubStack(debug.Stack())
		}
	}()
	res.Value, res.Err = c.Run(ctx)
	return res
}

// scrubStack drops the "goroutine N [running]:" header from a
// debug.Stack dump; goroutine numbers vary across runs and worker
// counts, and everything after the header is the deterministic frame
// list (modulo argument pointer values).
func scrubStack(b []byte) string {
	s := string(b)
	if strings.HasPrefix(s, "goroutine ") {
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			s = s[i+1:]
		}
	}
	return s
}
