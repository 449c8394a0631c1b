package repro

// Epoch oracle: a committed digest of the two epoch-driven execution
// modes — matrices (campaign + budget allocator, budgeted or fixed),
// conformance runs, and sharded campaigns (shard barrier). The other
// determinism tests pin these modes only against themselves across
// worker and shard counts; this one pins them against a recorded past,
// so a rewrite of the epoch machinery must reproduce every outcome,
// budget report, allocation trace, budget-epoch event, fixed-budget
// matrix and conformance report, sharded report and failure stream
// byte for byte.
//
// Regenerate (only for an intentional semantic change) with
//
//	go test . -run TestEpochDigest -update-epoch-digest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rff/internal/bench"
	"rff/internal/budget"
	"rff/internal/conformance"
	"rff/internal/core"
	"rff/internal/exec"
	"rff/internal/shard"
	"rff/internal/strategy"
	"rff/internal/telemetry"
)

var updateEpochDigest = flag.Bool("update-epoch-digest", false,
	"rewrite testdata/epoch_digest.golden")

var (
	epochPrograms = []string{"CS/account", "CS/reorder_10", "CS/twostage_20"}
	epochSeeds    = []int64{1, 2, 3}
)

// epochEventSink records the fields of every budget-epoch event; all
// other telemetry is dropped. Emit may be called from fleet workers, so
// it locks, but budget-epoch events fire only at the barrier.
type epochEventSink struct {
	mu     sync.Mutex
	events []telemetry.Fields
}

func (s *epochEventSink) Add(string, int64, ...telemetry.Label)     {}
func (s *epochEventSink) Set(string, int64, ...telemetry.Label)     {}
func (s *epochEventSink) Observe(string, int64, ...telemetry.Label) {}
func (s *epochEventSink) Emit(kind string, f telemetry.Fields) {
	if kind != telemetry.EvBudgetEpoch {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, f)
	s.mu.Unlock()
}

// writeJSON hashes v's JSON encoding (map keys sort, so it is stable).
func writeJSON(h hash.Hash, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

func epochBenchPrograms() []bench.Program {
	progs := make([]bench.Program, len(epochPrograms))
	for i, name := range epochPrograms {
		progs[i] = bench.MustGet(name)
	}
	return progs
}

func renderBudgetedMatrices(b *bytes.Buffer) {
	progs := epochBenchPrograms()
	for _, policy := range []string{"uniform", "ucb", "eps-greedy", "fox"} {
		for _, seed := range epochSeeds {
			sink := &epochEventSink{}
			res, err := strategy.RunMatrix(context.Background(), strategy.DefaultSpecs(), progs, strategy.Config{
				Trials:    2,
				Budget:    60,
				MaxSteps:  5000,
				BaseSeed:  seed,
				Workers:   2,
				Telemetry: sink,
				Budgeter:  &budget.Config{Policy: policy, Epochs: 4, CollectCovers: true},
			})
			if err != nil {
				panic(err)
			}
			h := sha256.New()
			writeJSON(h, res.Outcomes)
			writeJSON(h, res.BudgetReport)
			for _, f := range sink.events {
				writeJSON(h, f)
			}
			fmt.Fprintf(b, "matrix %s seed=%d epochs=%d spent=%d realloc=%d events=%d %x\n",
				policy, seed, res.BudgetReport.Epochs, res.BudgetReport.Spent,
				res.BudgetReport.Reallocations, len(sink.events), h.Sum(nil)[:12])
		}
	}
}

// renderFixedMatrices pins matrices without a Budgeter: every trial gets
// the fixed budget (budget x trials for a deterministic tool), and no
// budget report is produced. Panic stacks carry line numbers, so they
// are left out of the hash.
func renderFixedMatrices(b *bytes.Buffer) {
	progs := epochBenchPrograms()
	for _, seed := range epochSeeds {
		for _, trials := range []int{1, 2} {
			res, err := strategy.RunMatrix(context.Background(), strategy.DefaultSpecs(), progs, strategy.Config{
				Trials:   trials,
				Budget:   60,
				MaxSteps: 5000,
				BaseSeed: seed,
				Workers:  2,
			})
			if err != nil {
				panic(err)
			}
			for _, byProg := range res.Outcomes {
				for _, outs := range byProg {
					for i := range outs {
						outs[i].Stack = ""
					}
				}
			}
			h := sha256.New()
			writeJSON(h, res)
			fmt.Fprintf(b, "matrix fixed seed=%d trials=%d report=%t errors=%d %x\n",
				seed, trials, res.BudgetReport != nil, len(res.TrialErrors()), h.Sum(nil)[:12])
		}
	}
}

func renderBudgetedConformance(b *bytes.Buffer) {
	for _, seed := range []int64{1, 2} {
		rep := conformance.Run(conformance.Options{
			Programs:     2,
			Seed:         seed,
			Budget:       120,
			GTBudget:     60000,
			Workers:      2,
			BudgetPolicy: "ucb",
			BudgetEpochs: 4,
		})
		h := sha256.New()
		writeJSON(h, rep)
		fmt.Fprintf(b, "conformance ucb seed=%d programs=%d violations=%d %x\n",
			seed, rep.Programs, len(rep.Violations), h.Sum(nil)[:12])
	}
}

// renderFixedConformance pins conformance without a budget policy: each
// program runs as a fixed-budget matrix (one uniform epoch), so every
// trial gets the fixed budget and a deterministic tool budget x trials.
func renderFixedConformance(b *bytes.Buffer) {
	for _, grammar := range []string{"core", "chan"} {
		for _, seed := range []int64{1, 2} {
			for _, trials := range []int{1, 2} {
				rep := conformance.Run(conformance.Options{
					Programs: 6,
					Seed:     seed,
					Trials:   trials,
					Budget:   150,
					Workers:  2,
					Grammar:  grammar,
				})
				h := sha256.New()
				writeJSON(h, rep)
				fmt.Fprintf(b, "conformance fixed grammar=%s seed=%d trials=%d programs=%d violations=%d %x\n",
					grammar, seed, trials, rep.Programs, len(rep.Violations), h.Sum(nil)[:12])
			}
		}
	}
}

func renderShards(b *bytes.Buffer) {
	for _, p := range epochBenchPrograms() {
		for _, seed := range epochSeeds {
			for _, stop := range []bool{false, true} {
				for _, shards := range []int{1, 2} {
					h := sha256.New()
					rep := shard.Fuzz(p.Name, p.Body, shard.Options{
						Budget:         300,
						MaxSteps:       5000,
						Seed:           seed,
						StopAtFirstBug: stop,
						Shards:         shards,
						FailureObserver: func(res *exec.Result) {
							fmt.Fprintf(h, "observed %s %d %v %s\n",
								res.Program, res.Seed, res.Trace.Decisions, res.Failure)
						},
					})
					writeReport(h, rep)
					fmt.Fprintf(b, "shard %s seed=%d stop=%t shards=%d execs=%d first=%d failures=%d %x\n",
						p.Name, seed, stop, shards, rep.Executions, rep.FirstBug, len(rep.Failures), h.Sum(nil)[:12])
				}
			}
		}
	}
}

// writeReport hashes every field of a campaign report, rendering the
// abstract schedules through their String form.
func writeReport(h hash.Hash, rep *core.Report) {
	fmt.Fprintf(h, "%s execs=%d first=%d corpus=%d pairs=%d sigs=%d freqs=%v\n",
		rep.Program, rep.Executions, rep.FirstBug, rep.CorpusSize, rep.UniquePairs, rep.UniqueSigs, rep.SigFrequencies)
	for _, f := range rep.Failures {
		fmt.Fprintf(h, "failure %d %s %d %s %v\n", f.Execution, f.Schedule, f.Seed, f.Failure, f.Decisions)
	}
}

func renderEpochDigest() []byte {
	var b bytes.Buffer
	renderBudgetedMatrices(&b)
	renderFixedMatrices(&b)
	renderBudgetedConformance(&b)
	renderFixedConformance(&b)
	renderShards(&b)
	return b.Bytes()
}

func TestEpochDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs budgeted matrices, conformance and sharded campaigns")
	}
	path := filepath.Join("testdata", "epoch_digest.golden")
	got := renderEpochDigest()
	if *updateEpochDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-epoch-digest)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Errorf("digest has %d lines, want %d", len(gl), len(wl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
}
