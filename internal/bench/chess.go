package bench

import (
	"fmt"

	"rff/internal/exec"
)

// The Chess suite ports the CHESS work-stealing queue benchmarks
// (Musuvathi et al., OSDI'08): a Cilk-style deque where the owner pushes
// and pops at the tail and thieves steal from the head. Each variant has
// the suite's characteristic owner/thief race in which one element is
// taken twice (or lost); the oracle marks every take with an atomic
// claim so a double take crashes immediately.

func init() {
	register(Program{
		Name: "Chess/WorkStealQueue", Suite: "Chess", Bug: BugAssert, Threads: 2,
		Desc: "lock-based WSQ with an unsynchronized pop fast path: owner and thief can both take the last element",
		Body: wsqProgram(wsqLocked, 3, 1),
	})
	register(Program{
		Name: "Chess/InterlockedWorkStealQueue", Suite: "Chess", Bug: BugAssert, Threads: 2,
		Desc: "WSQ whose thieves use CAS on head; the owner's unsynchronized pop still races on the final element",
		Body: wsqProgram(wsqInterlocked, 3, 1),
	})
	register(Program{
		Name: "Chess/StateWorkStealQueue", Suite: "Chess", Bug: BugAssert, Threads: 2,
		Desc: "WSQ with a per-item state array claimed without synchronization: conflicting claims fire the state assert",
		Body: wsqProgram(wsqState, 3, 1),
	})
	register(Program{
		Name: "Chess/InterlockedWorkStealQueueWithState", Suite: "Chess", Bug: BugAssert, Threads: 2,
		Desc: "CAS-based WSQ with item states: the narrower owner/thief window still double-claims under one interleaving",
		Body: wsqProgram(wsqInterlockedState, 4, 1),
	})
}

// wsqVariant selects the synchronization scheme under test.
type wsqVariant uint8

const (
	wsqLocked wsqVariant = iota
	wsqInterlocked
	wsqState
	wsqInterlockedState
)

// wsq is the shared deque state.
type wsq struct {
	head, tail *exec.Var
	arr        []*exec.Var
	state      []*exec.Var // item claim states (state variants only)
	lock       *exec.Mutex
	claims     []*exec.Var // oracle: per-item atomic take counters
}

// newWSQ builds the deque with the given capacity.
func newWSQ(t *exec.Thread, cap int, withState bool) *wsq {
	q := &wsq{
		head:   t.NewVarAt(site_chess_61, "head", 0),
		tail:   t.NewVarAt(site_chess_62, "tail", 0),
		arr:    t.NewVarsAt(site_chess_63, "arr", cap, 0),
		lock:   t.NewMutexAt(site_chess_64, "qlock"),
		claims: t.NewVarsAt(site_chess_65, "claims", cap, 0),
	}
	if withState {
		q.state = t.NewVarsAt(site_chess_68, "state", cap, 0)
	}
	return q
}

// take is the oracle: every successful take of item (value v = index+1)
// must be unique across owner and thieves.
func (q *wsq) take(t *exec.Thread, idx int64, who string) {
	prev := t.AtomicAddAt(site_chess_76, q.claims[idx], 1)
	t.AssertfAt(site_chess_77, prev == 0, "item %d taken twice (second taker: %s)", idx, who)
}

// claimState models the state-array variants' per-item claim protocol:
// read-check-write without synchronization.
func (q *wsq) claimState(t *exec.Thread, idx int64, who string) {
	s := t.ReadAt(site_chess_83, q.state[idx])
	t.AssertfAt(site_chess_84, s == 0, "item %d state already claimed (second claimer: %s)", idx, who)
	t.WriteAt(site_chess_85, q.state[idx], 1)
}

// push appends at the tail (owner only).
func (q *wsq) push(t *exec.Thread, v int64) {
	tl := t.ReadAt(site_chess_90, q.tail)
	t.WriteAt(site_chess_91, q.arr[tl], v)
	t.WriteAt(site_chess_92, q.tail, tl+1)
}

// pop removes from the tail. The fast path is the CHESS bug: tail is
// decremented and the element taken with only a stale head check, so a
// concurrent steal of the same (last) element goes unnoticed.
func (q *wsq) pop(t *exec.Thread, variant wsqVariant) (int64, bool) {
	tl := t.ReadAt(site_chess_99, q.tail) - 1
	if tl < 0 {
		return 0, false
	}
	t.WriteAt(site_chess_103, q.tail, tl)
	h := t.ReadAt(site_chess_104, q.head)
	if h > tl {
		// Queue looked empty: restore and retry under the lock.
		t.WriteAt(site_chess_107, q.tail, tl+1)
		t.LockAt(site_chess_108, q.lock)
		h = t.ReadAt(site_chess_109, q.head)
		tl = t.ReadAt(site_chess_110, q.tail) - 1
		if h > tl {
			t.UnlockAt(site_chess_112, q.lock)
			return 0, false
		}
		t.WriteAt(site_chess_115, q.tail, tl)
		v := t.ReadAt(site_chess_116, q.arr[tl])
		t.UnlockAt(site_chess_117, q.lock)
		return v, true
	}
	// BUG: when h == tl a thief may be taking arr[tl] right now.
	v := t.ReadAt(site_chess_121, q.arr[tl])
	return v, true
}

// steal removes from the head (thieves).
func (q *wsq) steal(t *exec.Thread, variant wsqVariant) (int64, bool) {
	switch variant {
	case wsqLocked, wsqState:
		t.LockAt(site_chess_129, q.lock)
		h := t.ReadAt(site_chess_130, q.head)
		tl := t.ReadAt(site_chess_131, q.tail)
		if h >= tl {
			t.UnlockAt(site_chess_133, q.lock)
			return 0, false
		}
		v := t.ReadAt(site_chess_136, q.arr[h])
		t.WriteAt(site_chess_137, q.head, h+1)
		t.UnlockAt(site_chess_138, q.lock)
		return v, true
	default: // wsqInterlocked, wsqInterlockedState
		h := t.ReadAt(site_chess_141, q.head)
		tl := t.ReadAt(site_chess_142, q.tail)
		if h >= tl {
			return 0, false
		}
		v := t.ReadAt(site_chess_146, q.arr[h])
		if _, ok := t.CASAt(site_chess_147, q.head, h, h+1); ok {
			return v, true
		}
		return 0, false
	}
}

// wsqProgram builds the benchmark body: the owner pushes `items` items and
// pops them back while `thieves` thieves steal concurrently.
func wsqProgram(variant wsqVariant, items, thieves int) exec.Program {
	withState := variant == wsqState || variant == wsqInterlockedState
	return func(t *exec.Thread) {
		q := newWSQ(t, items, withState)
		owner := t.GoAt(site_chess_160, "owner", func(w *exec.Thread) {
			for i := 0; i < items; i++ {
				q.push(w, int64(i))
			}
			for i := 0; i < items; i++ {
				v, ok := q.pop(w, variant)
				if !ok {
					continue
				}
				if withState {
					q.claimState(w, v, "owner")
				}
				q.take(w, v, "owner")
			}
		})
		ths := make([]*exec.Thread, 0, thieves+1)
		ths = append(ths, owner)
		for i := 0; i < thieves; i++ {
			ths = append(ths, t.GoAt(site_chess_178, fmt.Sprintf("thief%d", i), func(w *exec.Thread) {
				for tries := 0; tries < items+1; tries++ {
					v, ok := q.steal(w, variant)
					if !ok {
						w.YieldAt(site_chess_182)
						continue
					}
					if withState {
						q.claimState(w, v, "thief")
					}
					q.take(w, v, "thief")
				}
			}))
		}
		t.JoinAllAt(site_chess_192, ths...)
	}
}
