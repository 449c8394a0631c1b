// Package perf holds the pprof helpers behind every command's
// -cpuprofile/-memprofile flags and the shard-scaling measurement behind
// `rffbench shards`. Throughput and per-layer cost of the fuzz loop are
// measured by the separate rffperf module.
package perf

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPUProfile begins CPU profiling into the given file and returns the
// function that stops profiling and closes it. An empty path is a no-op.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeapProfile writes an allocation profile (after a final GC, so the
// numbers reflect live + cumulative allocation sites, not garbage timing).
// An empty path is a no-op.
func WriteHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating mem profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("writing mem profile: %w", err)
	}
	return nil
}
