package perf

import (
	"encoding/json"
	"runtime"
	"time"

	"rff/internal/bench"
	"rff/internal/shard"
)

// ShardPoint is one shard count's measurement of a single-program
// sharded campaign.
type ShardPoint struct {
	Shards      int
	Executions  int
	ExecsPerSec float64
	// Speedup is throughput relative to the first measured point
	// (measure 1 shard first to make this speedup over one shard).
	Speedup float64
	// AllocsPerExec is the heap-allocation delta across the campaign
	// divided by counted executions.
	AllocsPerExec float64
}

// ShardScaling is one program's shard-count scaling curve: how a single
// campaign's execs/sec moves as its fuzz loop spreads over worker
// shards, and whether the merged report stayed bit-identical while it
// did (the shard runner's determinism contract).
type ShardScaling struct {
	Program string
	Budget  int
	// NumCPU pins the parallelism the curve was measured under; a
	// speedup at 4 shards is not expected on 1 vCPU.
	NumCPU int
	// ResultsIdentical reports whether every shard count merged to a
	// byte-identical core.Report, as the shard runner promises.
	ResultsIdentical bool
	Points           []ShardPoint
}

// MeasureShards runs the same single-program campaign at each shard
// count in turn (first count is the speedup baseline) and cross-checks
// that all runs merged to identical reports.
func MeasureShards(p bench.Program, budget, maxSteps int, seed int64, shardCounts []int) *ShardScaling {
	sc := &ShardScaling{
		Program:          p.Name,
		Budget:           budget,
		NumCPU:           runtime.NumCPU(),
		ResultsIdentical: true,
	}
	var baseline []byte
	var baseRate float64
	for _, w := range shardCounts {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		rep := shard.Fuzz(p.Name, p.Body, shard.Options{
			Budget:   budget,
			MaxSteps: maxSteps,
			Seed:     seed,
			Shards:   w,
		})
		wall := time.Since(start)
		runtime.ReadMemStats(&after)

		pt := ShardPoint{Shards: w, Executions: rep.Executions, Speedup: 1}
		if rep.Executions > 0 && wall > 0 {
			pt.ExecsPerSec = float64(rep.Executions) / wall.Seconds()
			pt.AllocsPerExec = float64(after.Mallocs-before.Mallocs) / float64(rep.Executions)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			data = nil
		}
		if baseline == nil {
			baseline = data
			baseRate = pt.ExecsPerSec
		} else {
			if baseRate > 0 {
				pt.Speedup = pt.ExecsPerSec / baseRate
			}
			if string(data) != string(baseline) {
				sc.ResultsIdentical = false
			}
		}
		sc.Points = append(sc.Points, pt)
	}
	return sc
}
