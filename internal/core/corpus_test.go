package core_test

import (
	"testing"

	"rff/internal/core"
	"rff/internal/exec"
)

// locSched builds a one-constraint schedule distinguished by loc, so tests
// can mint arbitrarily many distinct corpus keys.
func locSched(loc string) core.Schedule {
	return core.NewSchedule(core.Constraint{
		Write: exec.AbstractEvent{Op: exec.OpWrite, Var: "v", Loc: loc + ":w"},
		Read:  exec.AbstractEvent{Op: exec.OpRead, Var: "v", Loc: loc + ":r"},
	})
}

func TestCorpusAddReturnsStableIndex(t *testing.T) {
	c := core.NewCorpus() // index 0 is ε
	for i := 1; i <= 5; i++ {
		idx, added := c.Add(&core.Entry{Schedule: locSched(string(rune('a' + i)))})
		if !added || idx != i {
			t.Fatalf("add %d: got (%d, %v), want (%d, true)", i, idx, added, i)
		}
	}
	// Re-adding any schedule returns its original insertion index.
	for i := 1; i <= 5; i++ {
		idx, added := c.Add(&core.Entry{Schedule: locSched(string(rune('a' + i)))})
		if added || idx != i {
			t.Fatalf("re-add %d: got (%d, %v), want (%d, false)", i, idx, added, i)
		}
	}
	// Indices identify entries positionally.
	for i, e := range c.Entries() {
		idx, added := c.Add(&core.Entry{Schedule: e.Schedule})
		if added || idx != i {
			t.Fatalf("entry %d: index lookup gave (%d, %v)", i, idx, added)
		}
	}
}
