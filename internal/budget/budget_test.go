package budget

import (
	"context"
	"reflect"
	"testing"
)

// syntheticReward is a deterministic reward stream: cell i's yield in
// epoch e depends only on (seed, i, e), so two allocators fed the same
// stream must produce identical traces.
func syntheticReward(seed int64, cell, epoch, share int) Reward {
	r := NewRand(seed + int64(cell)*1000 + int64(epoch))
	if share == 0 {
		return Reward{}
	}
	return Reward{
		Executions: share,
		NewPairs:   r.Intn(share + 1),
		FirstBug:   r.Float64() < 0.02,
	}
}

// runStream drives an allocator through epochs of a synthetic stream
// and returns its trace.
func runStream(t *testing.T, policy string, seed int64, cells, epochs, pool int) *Allocator {
	t.Helper()
	a, err := New(cells, seed, Config{Policy: policy, Epochs: epochs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for e := 0; e < epochs; e++ {
		shares := a.Allocate(pool)
		for i, s := range shares {
			if a.Done(i) {
				continue
			}
			rw := syntheticReward(seed, i, e, s)
			a.Observe(i, rw)
			if rw.FirstBug {
				a.MarkDone(i)
			}
		}
	}
	return a
}

// TestConservation: every epoch's shares are non-negative, sum to the
// pool (while any cell is live), respect the floor, and never fund a
// done cell.
func TestConservation(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			const cells, epochs, pool = 6, 12, 100
			a, err := New(cells, 42, Config{Policy: policy, MinShare: 3})
			if err != nil {
				t.Fatal(err)
			}
			done := make(map[int]bool)
			for e := 0; e < epochs; e++ {
				shares := a.Allocate(pool)
				if len(shares) != cells {
					t.Fatalf("epoch %d: %d shares, want %d", e, len(shares), cells)
				}
				sum, live := 0, cells-len(done)
				for i, s := range shares {
					if s < 0 {
						t.Fatalf("epoch %d cell %d: negative share %d", e, i, s)
					}
					if done[i] && s != 0 {
						t.Fatalf("epoch %d: done cell %d funded %d", e, i, s)
					}
					if !done[i] && live > 0 && s < 3 && pool >= 3*live {
						t.Fatalf("epoch %d: cell %d starved below floor: %d", e, i, s)
					}
					sum += s
				}
				if live > 0 && sum != pool {
					t.Fatalf("epoch %d: shares sum to %d, want pool %d", e, sum, pool)
				}
				if live == 0 && sum != 0 {
					t.Fatalf("epoch %d: all done but allocated %d", e, sum)
				}
				for i, s := range shares {
					if done[i] {
						continue
					}
					a.Observe(i, syntheticReward(42, i, e, s))
					if e == i { // retire one cell per epoch
						a.MarkDone(i)
						done[i] = true
					}
				}
			}
			if got := a.Trace(); len(got) != epochs {
				t.Fatalf("trace has %d entries, want %d", len(got), epochs)
			}
		})
	}
}

// TestPoolSmallerThanCells: with fewer executions than live cells the
// floor degrades to one-each in cell order and nothing goes negative.
func TestPoolSmallerThanCells(t *testing.T) {
	a, err := New(8, 1, Config{Policy: "ucb"})
	if err != nil {
		t.Fatal(err)
	}
	shares := a.Allocate(3)
	want := []int{1, 1, 1, 0, 0, 0, 0, 0}
	if !reflect.DeepEqual(shares, want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
}

// TestZeroPool allocates nothing but still records a trace entry.
func TestZeroPool(t *testing.T) {
	a, err := New(3, 1, Config{Policy: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Allocate(0) {
		if s != 0 {
			t.Fatalf("zero pool allocated %d", s)
		}
	}
	if a.Epoch() != 1 || len(a.Trace()) != 1 {
		t.Fatalf("epoch %d, trace %d; want 1, 1", a.Epoch(), len(a.Trace()))
	}
}

// TestAllDone: once every cell is marked done, allocation is all
// zeros regardless of pool.
func TestAllDone(t *testing.T) {
	a, err := New(4, 9, Config{Policy: "fox"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a.MarkDone(i)
	}
	for _, s := range a.Allocate(1000) {
		if s != 0 {
			t.Fatalf("done cell funded %d", s)
		}
	}
	if a.Active() != 0 {
		t.Fatalf("Active() = %d, want 0", a.Active())
	}
}

// TestDeterminism: the same (policy, seed, reward stream) yields a
// bit-identical trace and cell state on rerun.
func TestDeterminism(t *testing.T) {
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				a := runStream(t, policy, seed, 5, 10, 90)
				b := runStream(t, policy, seed, 5, 10, 90)
				if !reflect.DeepEqual(a.Trace(), b.Trace()) {
					t.Fatalf("seed %d: traces differ:\n%v\n%v", seed, a.Trace(), b.Trace())
				}
				if !reflect.DeepEqual(a.Cells(), b.Cells()) {
					t.Fatalf("seed %d: cell state differs", seed)
				}
				if a.Reallocations() != b.Reallocations() {
					t.Fatalf("seed %d: reallocations differ: %d vs %d",
						seed, a.Reallocations(), b.Reallocations())
				}
			}
		})
	}
}

// TestAdaptiveShiftsBudget: under a stream where cell 0 yields pairs
// and the rest never do, every adaptive policy ends up granting cell 0
// strictly more than a uniform split would.
func TestAdaptiveShiftsBudget(t *testing.T) {
	for _, policy := range AdaptivePolicies() {
		t.Run(policy, func(t *testing.T) {
			const cells, epochs, pool = 4, 10, 100
			a, err := New(cells, 7, Config{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				shares := a.Allocate(pool)
				for i, s := range shares {
					rw := Reward{Executions: s}
					if i == 0 {
						rw.NewPairs = s / 2
					}
					a.Observe(i, rw)
				}
			}
			cs := a.Cells()
			uniform := int64(epochs * pool / cells)
			if cs[0].Allocated <= uniform {
				t.Fatalf("cell 0 got %d executions, uniform split is %d — no adaptation",
					cs[0].Allocated, uniform)
			}
		})
	}
}

// TestValidate covers the config error paths every entry point relies
// on for early rejection.
func TestValidate(t *testing.T) {
	if err := (Config{Policy: "nope"}).Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := (Config{Policy: "ucb", MinShare: -1}).Validate(); err == nil {
		t.Fatal("negative min-share accepted")
	}
	if err := (Config{Policy: "ucb"}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := New(0, 1, Config{Policy: "ucb"}); err == nil {
		t.Fatal("zero cells accepted")
	}
	if _, err := New(2, 1, Config{Policy: "ucb", Epochs: -2}); err == nil {
		t.Fatal("negative epochs accepted")
	}
}

// TestPolicyList pins the catalog: the uniform baseline plus three
// adaptive policies, and AdaptivePolicies excludes the baseline.
func TestPolicyList(t *testing.T) {
	want := []string{"eps-greedy", "fox", "ucb", "uniform"}
	if got := Policies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
	wantA := []string{"eps-greedy", "fox", "ucb"}
	if got := AdaptivePolicies(); !reflect.DeepEqual(got, wantA) {
		t.Fatalf("AdaptivePolicies() = %v, want %v", got, wantA)
	}
	for _, name := range Policies() {
		if !ValidPolicy(name) {
			t.Fatalf("ValidPolicy(%q) = false", name)
		}
	}
	if ValidPolicy("UNIFORM") || ValidPolicy("") {
		t.Fatal("invalid names accepted")
	}
}

// TestEpochSeed: epoch 0 is the identity (a one-epoch uniform campaign
// must reproduce the classic matrix), later epochs diverge.
func TestEpochSeed(t *testing.T) {
	if got := EpochSeed(12345, 0); got != 12345 {
		t.Fatalf("EpochSeed(s, 0) = %d, want identity", got)
	}
	seen := map[int64]bool{12345: true}
	for e := 1; e < 50; e++ {
		s := EpochSeed(12345, e)
		if seen[s] {
			t.Fatalf("epoch %d: seed collision %d", e, s)
		}
		seen[s] = true
	}
}

// TestDefaults: zero-valued config fields pick up package defaults.
func TestDefaults(t *testing.T) {
	a, err := New(2, 1, Config{Policy: "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := a.Config(); cfg.Epochs != DefaultEpochs || cfg.MinShare != DefaultMinShare {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestSpendMatchesManualLoop: Spend is exactly the hand-written epoch
// loop — remainder-first pool split, Allocate, Observe every live cell,
// MarkDone the reported ones — for every policy.
func TestSpendMatchesManualLoop(t *testing.T) {
	const cells, epochs, seed = 4, 5, 7
	const total = epochs*100 + 3
	poolOf := func(e int) int {
		if e < 3 {
			return 101
		}
		return 100
	}
	for _, policy := range Policies() {
		t.Run(policy, func(t *testing.T) {
			cfg := Config{Policy: policy, Epochs: epochs}
			want, _ := New(cells, seed, cfg)
			for e := 0; e < epochs && want.Active() > 0; e++ {
				shares := want.Allocate(poolOf(e))
				for i, s := range shares {
					if want.Done(i) {
						continue
					}
					rw := syntheticReward(seed, i, e, s)
					want.Observe(i, rw)
					if rw.FirstBug {
						want.MarkDone(i)
					}
				}
			}

			got, _ := New(cells, seed, cfg)
			got.Spend(context.Background(), total, func(e, pool int, shares []int) []Yield {
				if pool != poolOf(e) {
					t.Fatalf("epoch %d: pool %d, want %d", e, pool, poolOf(e))
				}
				ys := make([]Yield, cells)
				for i, s := range shares {
					rw := syntheticReward(seed, i, e, s)
					ys[i] = Yield{Reward: rw, Done: rw.FirstBug}
				}
				return ys
			})
			if !reflect.DeepEqual(got.Trace(), want.Trace()) || !reflect.DeepEqual(got.Cells(), want.Cells()) {
				t.Fatalf("Spend diverged from the manual loop:\n got  %v\n want %v", got.Trace(), want.Trace())
			}
		})
	}
}

// TestSpendStops: Spend ends early once every cell is done, never
// calls run under a cancelled context, and ignores the yields of cells
// retired in earlier epochs.
func TestSpendStops(t *testing.T) {
	a, _ := New(2, 1, Config{Policy: "uniform", Epochs: 6})
	calls := 0
	a.Spend(context.Background(), 600, func(e, _ int, _ []int) []Yield {
		calls++
		// Cell 0 retires at epoch 0 but keeps reporting executions;
		// cell 1 retires at epoch 2.
		return []Yield{
			{Reward: Reward{Executions: 50}, Done: true},
			{Reward: Reward{Executions: 50}, Done: e == 2},
		}
	})
	if calls != 3 || a.Epoch() != 3 {
		t.Fatalf("ran %d epochs (%d allocations), want 3", calls, a.Epoch())
	}
	if st := a.Cells(); st[0].Spent != 50 || st[1].Spent != 150 {
		t.Fatalf("spent %d/%d, want 50/150: a retired cell's yield was observed", st[0].Spent, st[1].Spent)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := New(2, 1, Config{Policy: "uniform"})
	b.Spend(ctx, 600, func(int, int, []int) []Yield {
		t.Fatal("run called under a cancelled context")
		return nil
	})
	if b.Epoch() != 0 {
		t.Fatalf("cancelled Spend allocated %d epochs", b.Epoch())
	}
}
