// Package budget treats matrix budget allocation as an online control
// problem. A campaign's total execution budget is spent in epochs: each
// epoch the Allocator hands every live (tool, program) cell an integer
// share of the epoch's pool, the campaign runs those shares, and the
// observed reward — marginal rf-pair coverage and first-bug events —
// feeds the next epoch's allocation through a pluggable policy.
//
// Everything is deterministic: the only randomness is a splitmix64
// stream seeded by the campaign seed, shares are computed with the
// largest-remainder method in fixed cell order, and the full allocation
// trace is recorded so a (seed, policy, budget) triple reproduces the
// identical schedule bit for bit.
package budget

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
)

const (
	// DefaultEpochs is the number of allocation barriers per campaign.
	DefaultEpochs = 8
	// DefaultMinShare is the per-epoch execution floor below which no
	// live cell is allowed to starve.
	DefaultMinShare = 1
)

// Config selects and parameterizes an allocator. The zero value of
// Epochs and MinShare mean "use the defaults"; Policy must name a
// registered policy.
type Config struct {
	// Policy is one of Policies(): "uniform", "ucb", "eps-greedy", "fox".
	Policy string
	// Epochs is the number of allocation barriers the campaign budget
	// is spent across.
	Epochs int
	// MinShare is the per-epoch execution floor for every live cell.
	// When the pool is too small to afford the floor for everyone, the
	// floor degrades gracefully (pool/cells each, never negative).
	MinShare int
	// CollectCovers asks the campaign runner to record every cell's
	// first-cover events (pair, global execution index) in its
	// BudgetReport. Evaluation harnesses need this; plain runs do not.
	CollectCovers bool
}

// withDefaults returns c with zero fields replaced by package defaults.
func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = DefaultEpochs
	}
	if c.MinShare == 0 {
		c.MinShare = DefaultMinShare
	}
	return c
}

// Validate reports whether the config names a registered policy and
// has sane epoch/floor values.
func (c Config) Validate() error {
	if !ValidPolicy(c.Policy) {
		return fmt.Errorf("budget: unknown policy %q (have %s)", c.Policy, strings.Join(Policies(), ", "))
	}
	if c.Epochs < 0 {
		return fmt.Errorf("budget: epochs must be >= 1, got %d", c.Epochs)
	}
	if c.MinShare < 0 {
		return fmt.Errorf("budget: min-share must be >= 0, got %d", c.MinShare)
	}
	return nil
}

// Reward is one cell's observed yield for one epoch.
type Reward struct {
	// Executions the cell actually ran this epoch (may be below its
	// share when the cell stopped early at a bug or error).
	Executions int
	// NewPairs is the number of never-before-seen rf-pairs the cell
	// covered this epoch, relative to its own cumulative set.
	NewPairs int
	// FirstBug marks the epoch in which the cell found its first
	// failure.
	FirstBug bool
}

// CellState is the allocator's cumulative view of one cell. Policies
// read these; only the Allocator writes them.
type CellState struct {
	// Allocated is the total executions granted across all epochs.
	Allocated int64 `json:"allocated"`
	// Spent is the total executions the cell reported back.
	Spent int64 `json:"spent"`
	// NewPairs is the cumulative count of first-covered rf-pairs.
	NewPairs int64 `json:"new_pairs"`
	// Funded is the number of epochs with a non-zero share.
	Funded int `json:"funded"`
	// LastFunded is the epoch index of the latest non-zero share, -1
	// before the first.
	LastFunded int `json:"last_funded"`
	// Rate is NewPairs/Spent, the cell's lifetime coverage yield.
	Rate float64 `json:"rate"`
	// LastRate is the latest observed epoch's NewPairs/Executions.
	LastRate float64 `json:"last_rate"`
	// Bug records that the cell reported a first-bug event.
	Bug bool `json:"bug"`
	// Done cells receive no further budget.
	Done bool `json:"done"`
}

// EpochAllocation is one entry of the deterministic allocation trace.
type EpochAllocation struct {
	Epoch  int   `json:"epoch"`
	Pool   int   `json:"pool"`
	Shares []int `json:"shares"`
}

// Allocator drives the epoch loop for a fixed set of cells. It is not
// safe for concurrent use; campaigns call it only at epoch barriers.
type Allocator struct {
	cfg    Config
	policy policy
	cells  []CellState
	rng    *Rand
	epoch  int
	trace  []EpochAllocation
	prev   []int
	moves  int
}

// New builds an allocator for n cells. The seed feeds the policy's
// splitmix64 stream; identical (n, seed, cfg) triples produce
// bit-identical allocation traces for identical reward streams.
func New(n int, seed int64, cfg Config) (*Allocator, error) {
	if n < 1 {
		return nil, fmt.Errorf("budget: need at least one cell, got %d", n)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("budget: epochs must be >= 1, got %d", cfg.Epochs)
	}
	a := &Allocator{
		cfg:    cfg,
		policy: newPolicy(cfg.Policy),
		cells:  make([]CellState, n),
		rng:    NewRand(seed),
	}
	for i := range a.cells {
		a.cells[i].LastFunded = -1
	}
	return a, nil
}

// Config returns the allocator's effective (default-filled) config.
func (a *Allocator) Config() Config { return a.cfg }

// Epoch returns the number of Allocate calls so far.
func (a *Allocator) Epoch() int { return a.epoch }

// Active returns the number of cells still eligible for budget.
func (a *Allocator) Active() int {
	n := 0
	for i := range a.cells {
		if !a.cells[i].Done {
			n++
		}
	}
	return n
}

// Allocate splits pool executions across the live cells for the next
// epoch and returns one integer share per cell. Shares are
// non-negative, sum to min(pool, affordable), respect the MinShare
// floor whenever the pool can afford it, and are zero for done cells.
func (a *Allocator) Allocate(pool int) []int {
	shares := make([]int, len(a.cells))
	var active []int
	for i := range a.cells {
		if !a.cells[i].Done {
			active = append(active, i)
		}
	}
	if pool > 0 && len(active) > 0 {
		a.split(pool, active, shares)
	}
	for i, s := range shares {
		if s > 0 {
			a.cells[i].Allocated += int64(s)
			a.cells[i].Funded++
			a.cells[i].LastFunded = a.epoch
		}
	}
	if a.prev != nil {
		for i := range shares {
			if shares[i] != a.prev[i] {
				a.moves++
			}
		}
	}
	a.prev = append([]int(nil), shares...)
	a.trace = append(a.trace, EpochAllocation{
		Epoch:  a.epoch,
		Pool:   pool,
		Shares: append([]int(nil), shares...),
	})
	a.epoch++
	return shares
}

// split fills shares for the active cells: a uniform floor first, then
// the remainder proportional to the policy's weights via the
// largest-remainder method (ties broken by cell order, so the result
// is a pure function of the inputs).
func (a *Allocator) split(pool int, active []int, shares []int) {
	floor := a.cfg.MinShare
	if floor*len(active) > pool {
		floor = pool / len(active)
	}
	if floor == 0 {
		// Fewer executions than live cells: one each, in cell order,
		// until the pool runs out.
		for k := 0; k < pool && k < len(active); k++ {
			shares[active[k]] = 1
		}
		return
	}
	rem := pool - floor*len(active)
	for _, i := range active {
		shares[i] = floor
	}
	if rem == 0 {
		return
	}

	w := make([]float64, len(a.cells))
	a.policy.weights(a.cells, a.epoch, a.rng, w)
	sum := 0.0
	for _, i := range active {
		if w[i] < 0 || math.IsNaN(w[i]) || math.IsInf(w[i], 0) {
			w[i] = 0
		}
		sum += w[i]
	}
	if sum <= 0 {
		for _, i := range active {
			w[i] = 1
		}
		sum = float64(len(active))
	}

	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, 0, len(active))
	used := 0
	for _, i := range active {
		exact := float64(rem) * w[i] / sum
		whole := int(exact)
		shares[i] += whole
		used += whole
		fracs = append(fracs, frac{i, exact - float64(whole)})
	}
	sort.SliceStable(fracs, func(x, y int) bool { return fracs[x].rem > fracs[y].rem })
	for k := 0; k < rem-used; k++ {
		shares[fracs[k%len(fracs)].idx]++
	}
}

// Observe feeds one cell's epoch reward back into the allocator.
func (a *Allocator) Observe(cell int, r Reward) {
	c := &a.cells[cell]
	c.Spent += int64(r.Executions)
	c.NewPairs += int64(r.NewPairs)
	if c.Spent > 0 {
		c.Rate = float64(c.NewPairs) / float64(c.Spent)
	}
	if r.Executions > 0 {
		c.LastRate = float64(r.NewPairs) / float64(r.Executions)
	}
	if r.FirstBug {
		c.Bug = true
	}
}

// Yield is one cell's outcome of one epoch, as reported to Spend.
type Yield struct {
	Reward Reward
	// Done retires the cell: it receives no further budget.
	Done bool
}

// Spend runs the allocator's epoch loop over total executions. The
// total splits evenly across the configured epochs, the remainder going
// to the first ones. While ctx is live and some cell is active, Spend
// allocates the epoch's pool and hands the shares to run, which spends
// them and returns one Yield per cell. Spend then observes the reward of
// every cell that was live this epoch, in cell order, and retires those
// run reports done; yields of cells retired earlier are ignored.
func (a *Allocator) Spend(ctx context.Context, total int64, run func(epoch, pool int, shares []int) []Yield) {
	epochs := a.cfg.Epochs
	base, extra := total/int64(epochs), total%int64(epochs)
	for e := 0; e < epochs && ctx.Err() == nil && a.Active() > 0; e++ {
		pool := base
		if int64(e) < extra {
			pool++
		}
		shares := a.Allocate(int(pool))
		ys := run(e, int(pool), shares)
		for i, y := range ys {
			if a.cells[i].Done {
				continue
			}
			a.Observe(i, y.Reward)
			if y.Done {
				a.MarkDone(i)
			}
		}
	}
}

// MarkDone removes a cell from all future allocations; its share flows
// back to the live cells.
func (a *Allocator) MarkDone(cell int) { a.cells[cell].Done = true }

// Done reports whether a cell has been marked done.
func (a *Allocator) Done(cell int) bool { return a.cells[cell].Done }

// Reallocations counts, across all epochs after the first, cells whose
// share differed from their previous-epoch share.
func (a *Allocator) Reallocations() int { return a.moves }

// Trace returns the full allocation history, one entry per epoch.
func (a *Allocator) Trace() []EpochAllocation { return a.trace }

// Cells returns a copy of the per-cell cumulative state.
func (a *Allocator) Cells() []CellState {
	return append([]CellState(nil), a.cells...)
}

// Rand is a splitmix64 stream: tiny, fast, and identical on every
// platform, which is all the determinism argument needs.
type Rand struct{ state uint64 }

// NewRand seeds a stream. Distinct seeds give independent streams.
func NewRand(seed int64) *Rand {
	return &Rand{state: uint64(seed) ^ 0x9E3779B97F4A7C15}
}

// Uint64 advances the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// EpochSeed derives the trial seed for one epoch of a cell from the
// cell's base trial seed. Epoch 0 is the identity, so a one-epoch
// uniform campaign reproduces the classic fixed-budget matrix exactly.
// campaign.SchedulerTool derives execution i's seed the same way from
// its trial seed, with i >= 1; splitmix64-style mixing keeps the
// streams independent.
func EpochSeed(seed int64, epoch int) int64 {
	if epoch == 0 {
		return seed
	}
	z := uint64(seed) + uint64(epoch)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
