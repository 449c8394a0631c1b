package core

import "rff/internal/exec"

// Feedback is the fuzzer's greybox feedback state: which abstract
// reads-from pairs have ever been observed (the novelty signal behind
// isInteresting) and how often each whole reads-from combination — the
// signature of an execution's ≡rf equivalence class — has been exercised
// (the f(α) frequency driving the power schedule and the Figure 5
// distribution).
//
// Pairs are keyed by their interned PairID — a single integer — rather
// than the 6-string RFPair struct, so the per-execution map traffic of
// Observe hashes 8 bytes instead of re-hashing every Var/Loc string.
type Feedback struct {
	// intern is the table the PairID keys resolve through, adopted from
	// the first observed trace (the campaign's shared table when the
	// executions run with exec.Config.Intern set).
	intern    *exec.InternTable
	pairCount map[exec.PairID]int
	sigCount  map[uint64]int
	sigOrder  []uint64 // first-observation order, for deterministic reports
}

// feedbackSizeHint pre-sizes the feedback maps: campaigns on the
// evaluation suite typically accumulate tens of pairs and combinations,
// so one up-front allocation absorbs the growth path entirely.
const feedbackSizeHint = 128

// NewFeedback returns empty feedback state.
func NewFeedback() *Feedback {
	return &Feedback{
		pairCount: make(map[exec.PairID]int, feedbackSizeHint),
		sigCount:  make(map[uint64]int, feedbackSizeHint),
		sigOrder:  make([]uint64, 0, feedbackSizeHint),
	}
}

// Observation summarizes what one execution contributed.
type Observation struct {
	// NewPairs is the number of reads-from pairs never seen before this
	// execution — the paper's novelty measure.
	NewPairs int
	// Sig is the execution's reads-from combination signature.
	Sig uint64
	// NewSig reports whether the combination itself was first seen now.
	NewSig bool
}

// Observe folds one trace into the feedback state and reports its novelty.
// The trace's memoized Summary supplies pairs and signature in one shot,
// so calling Observe never re-derives them.
func (f *Feedback) Observe(t *exec.Trace) Observation { return f.ObserveSummary(t.Summary()) }

// ObserveSummary folds one execution's summary into the feedback state
// and reports its novelty. Campaign.Fold calls it, under shards with
// summaries kept past their traces' Reclaim.
func (f *Feedback) ObserveSummary(s *exec.Summary) Observation {
	if f.intern == nil {
		f.intern = s.Table
	}
	var obs Observation
	if s.Table == f.intern {
		for _, pid := range s.PairIDs {
			f.countPair(pid, &obs)
		}
	} else {
		// The trace was summarized against a foreign table (an execution
		// run without the campaign's shared Config.Intern): re-intern its
		// pairs so the IDs stay comparable. Slow path, correctness only.
		for _, p := range s.Pairs {
			f.countPair(exec.MakePairID(f.intern.Intern(p.Write), f.intern.Intern(p.Read)), &obs)
		}
	}
	f.countSig(s.Sig, &obs)
	return obs
}

// countPair folds one pair observation into the state.
func (f *Feedback) countPair(pid exec.PairID, obs *Observation) {
	if f.pairCount[pid] == 0 {
		obs.NewPairs++
	}
	f.pairCount[pid]++
}

// countSig folds one signature observation into the state.
func (f *Feedback) countSig(sig uint64, obs *Observation) {
	obs.Sig = sig
	if f.sigCount[sig] == 0 {
		obs.NewSig = true
		f.sigOrder = append(f.sigOrder, sig)
	}
	f.sigCount[sig]++
}

// Interesting implements isInteresting(σmut, S): true when the execution
// exhibited a never-before-seen reads-from pair, realized a reads-from
// combination no corpus schedule has realized before, or crashed. The
// combination clause is what keeps the corpus growing after individual
// pairs saturate, giving the power schedule distinct neighborhoods to
// ramp or skip — the mechanism behind Figure 5's even exploration.
func (f *Feedback) Interesting(obs Observation, crashed bool) bool {
	return obs.NewPairs > 0 || obs.NewSig || crashed
}

// SigFrequency returns how often the given reads-from combination has been
// observed (the paper's f(α)).
func (f *Feedback) SigFrequency(sig uint64) int { return f.sigCount[sig] }

// UniquePairs returns the number of distinct reads-from pairs seen.
func (f *Feedback) UniquePairs() int { return len(f.pairCount) }

// UniqueSigs returns the number of distinct reads-from combinations seen.
func (f *Feedback) UniqueSigs() int { return len(f.sigCount) }

// SigFrequencies returns the observation counts of every distinct
// reads-from combination in first-observation order — the series plotted
// by Figure 5.
func (f *Feedback) SigFrequencies() []int {
	out := make([]int, len(f.sigOrder))
	for i, sig := range f.sigOrder {
		out[i] = f.sigCount[sig]
	}
	return out
}
