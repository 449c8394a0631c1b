package exec_test

import (
	"fmt"
	"testing"
	"unsafe"

	"rff/internal/exec"
	"rff/internal/sched"
)

// The engine copies Pendings into the View at every step and appends
// Events to the trace (and hands them to the scheduler) by value; adding
// the keys must not have grown either.
func TestEventAndPendingSizes(t *testing.T) {
	if n := unsafe.Sizeof(exec.Event{}); n > 80 {
		t.Errorf("exec.Event is %d bytes, want at most 80", n)
	}
	if n := unsafe.Sizeof(exec.Pending{}); n > 128 {
		t.Errorf("exec.Pending is %d bytes, want at most 128", n)
	}
}

func TestKeyOfIsEquality(t *testing.T) {
	events := []exec.AbstractEvent{
		{Op: exec.OpRead, Var: "x", Loc: "a.go:1"},
		{Op: exec.OpWrite, Var: "x", Loc: "a.go:1"},
		{Op: exec.OpRead, Var: "y", Loc: "a.go:1"},
		{Op: exec.OpRead, Var: "x", Loc: "a.go:2"},
		{Op: exec.OpYield, Var: "", Loc: "a.go:1"},
		{Op: exec.OpYield, Var: "", Loc: ""},
		{Op: exec.OpVarInit, Var: "a,b", Loc: "a.go:1"},
	}
	for i, a := range events {
		ka := exec.KeyOf(a)
		if ka == 0 {
			t.Errorf("KeyOf(%v) = 0, the no-event key", a)
		}
		if ka.Var() != exec.VarKeyOf(a.Var) {
			t.Errorf("KeyOf(%v).Var() = %d, VarKeyOf(%q) = %d", a, ka.Var(), a.Var, exec.VarKeyOf(a.Var))
		}
		for j, b := range events {
			if eq := ka == exec.KeyOf(b); eq != (i == j) {
				t.Errorf("KeyOf(%v) == KeyOf(%v) is %t", a, b, eq)
			}
		}
	}
}

// keyChecker wraps POS and checks, at every step, that the keys the
// engine stamped agree with the abstract events they stand for.
type keyChecker struct {
	sched.POS
	errs []string
}

func (k *keyChecker) errorf(format string, args ...any) {
	if len(k.errs) < 10 {
		k.errs = append(k.errs, fmt.Sprintf(format, args...))
	}
}

// wantWriteKey is the reference for Pending.WriteKey: the key of the
// abstract event the pending would be recorded under as a reads-from
// source.
func wantWriteKey(p *exec.Pending) exec.EventKey {
	switch p.Op {
	case exec.OpWrite, exec.OpLock, exec.OpLockRe, exec.OpUnlock, exec.OpWait,
		exec.OpSend, exec.OpClose, exec.OpWgAdd:
		return exec.KeyOf(p.Abstract())
	}
	if p.RMW != exec.RMWNone {
		return exec.KeyOf(exec.AbstractEvent{Op: exec.OpWrite, Var: p.VarName, Loc: p.Loc})
	}
	return 0
}

func (k *keyChecker) Pick(v *exec.View) int {
	for _, p := range v.Enabled {
		if want := exec.KeyOf(p.Abstract()); p.Key != want {
			k.errorf("step %d: pending %v of t%d has key %#x, want %#x", v.Step, p.Abstract(), p.Thread, p.Key, want)
		}
		if want := wantWriteKey(p); p.WriteKey != want {
			k.errorf("step %d: pending %v of t%d has write key %#x, want %#x", v.Step, p.Abstract(), p.Thread, p.WriteKey, want)
		}
	}
	return k.POS.Pick(v)
}

func (k *keyChecker) Executed(ev exec.Event) {
	if want := exec.KeyOf(ev.Abstract()); ev.Key != want {
		k.errorf("event %v has key %#x, want %#x", ev, ev.Key, want)
	}
}

// TestKeysMatchAbstractEvents runs every trace-digest subject and checks
// every pending and event key against its abstract event.
func TestKeysMatchAbstractEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every bench program")
	}
	for _, p := range digestPrograms() {
		k := &keyChecker{POS: *sched.NewPOS()}
		exec.Run(p.Name, p.Body, exec.Config{Scheduler: k, Seed: 1, MaxSteps: digestMaxSteps})
		for _, e := range k.errs {
			t.Errorf("%s: %s", p.Name, e)
		}
	}
}
