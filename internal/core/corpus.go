package core

// Entry is one corpus member: an interesting abstract schedule together
// with the bookkeeping the power schedule needs.
type Entry struct {
	// Schedule is the abstract schedule saved when its execution was
	// deemed interesting.
	Schedule Schedule
	// Sig is the reads-from combination its originating execution
	// exercised; f(α) is looked up through it.
	Sig uint64
	// Perf is the performance score γ(α): the number of new reads-from
	// pairs the originating execution contributed (at least 1).
	Perf int
	// ChosenSince is s(α): how many times the entry has been chosen
	// since it was last skipped by the power schedule.
	ChosenSince int
}

// Corpus is the working set S of interesting schedules. PickNext cycles
// through entries round-robin; the power schedule decides each entry's
// energy when its turn comes.
type Corpus struct {
	entries []*Entry
	next    int
	keys    map[string]int // canonical schedule key -> insertion index
}

// NewCorpus returns a corpus seeded with the given schedules (Algorithm
// 1's S_init; the empty schedule when none are given).
func NewCorpus(seed ...Schedule) *Corpus {
	c := &Corpus{keys: make(map[string]int)}
	if len(seed) == 0 {
		seed = []Schedule{EmptySchedule()}
	}
	for _, s := range seed {
		c.Add(&Entry{Schedule: s, Perf: 1})
	}
	return c
}

// Add appends an entry unless an identical schedule is already present.
// It returns the entry's stable insertion index — the position of the
// (new or pre-existing) entry holding that schedule — and whether the
// entry was added. The index is stable because the corpus only ever
// appends.
func (c *Corpus) Add(e *Entry) (index int, added bool) {
	k := e.Schedule.Key()
	if i, dup := c.keys[k]; dup {
		return i, false
	}
	if e.Perf < 1 {
		e.Perf = 1
	}
	index = len(c.entries)
	c.keys[k] = index
	c.entries = append(c.entries, e)
	return index, true
}

// Len returns the corpus size.
func (c *Corpus) Len() int { return len(c.entries) }

// Entries returns the corpus contents (shared slice; callers must not
// mutate entries' schedules).
func (c *Corpus) Entries() []*Entry { return c.entries }

// PickNext returns the next entry in round-robin order.
func (c *Corpus) PickNext() *Entry {
	e := c.entries[c.next%len(c.entries)]
	c.next++
	return e
}

// PowerConfig tunes the cut-off exponential power schedule of Section 4.2.
type PowerConfig struct {
	// Beta is the γ(α) divisor β. Zero means DefaultBeta.
	Beta float64
	// MaxEnergy is M, the maximum iterations per fuzzing stage. Zero
	// means DefaultMaxEnergy.
	MaxEnergy int
}

// DefaultBeta is the power schedule's β hyperparameter.
const DefaultBeta = 2.0

// DefaultMaxEnergy is M, the cap on energy per stage.
const DefaultMaxEnergy = 64

func (p PowerConfig) beta() float64 {
	if p.Beta <= 0 {
		return DefaultBeta
	}
	return p.Beta
}

func (p PowerConfig) maxEnergy() int {
	if p.MaxEnergy <= 0 {
		return DefaultMaxEnergy
	}
	return p.MaxEnergy
}

// Energy implements the paper's cut-off exponential power schedule:
//
//	p(α) = 0                            if f(α) > μ
//	     = min(γ(α)/β · 2^s(α), M)      otherwise
//	μ    = Σ_{α∈S+} f(α) / |S+|
//
// Schedules whose reads-from combination is over-observed relative to the
// corpus average are skipped entirely (resetting s(α)); under-explored
// combinations receive exponentially growing energy until they too become
// over-explored. This is what drives the even exploration of Figure 5.
func (c *Corpus) Energy(e *Entry, fb *Feedback, cfg PowerConfig) int {
	total := 0
	for _, x := range c.entries {
		total += fb.SigFrequency(x.Sig)
	}
	mu := float64(total) / float64(len(c.entries))
	fa := float64(fb.SigFrequency(e.Sig))
	if fa > mu {
		e.ChosenSince = 0 // skipped: restart the exponential ramp
		return 0
	}
	s := e.ChosenSince
	e.ChosenSince++
	if s > 30 {
		s = 30 // 2^s would overflow long before mattering past M
	}
	energy := float64(e.Perf) / cfg.beta() * float64(int64(1)<<uint(s))
	if m := float64(cfg.maxEnergy()); energy > m {
		energy = m
	}
	if energy < 1 {
		energy = 1
	}
	return int(energy)
}
