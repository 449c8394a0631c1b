package exec

// White-box tests for event-location capture: callerLoc must yield exactly
// the "file.go:line" runtime.Caller reports for the PUT call site, whatever
// shape the call takes, and must stay allocation-free once a site is warm.

import (
	"path"
	"runtime"
	"strconv"
	"testing"
)

// lineBelow returns the runtime.Caller-derived location of the line n
// lines below its call site, in callerLoc's "file.go:line" format.
func lineBelow(n int) string {
	_, file, line, _ := runtime.Caller(1)
	return path.Base(file) + ":" + strconv.Itoa(line+n)
}

// smallWrite is small enough to be inlined into its callers; the event
// must still carry the helper's own line, as runtime.Caller reports it.
var smallWriteAt = lineBelow(2)

func smallWrite(t *Thread, v *Var) { t.Write(v, 3) }

var noinlineWriteAt = lineBelow(3)

//go:noinline
func noinlineWrite(t *Thread, v *Var) { t.Write(v, 4) }

func TestEventLocMatchesRuntimeCaller(t *testing.T) {
	want := map[int64]string{}   // written value -> location of the Write
	readAt := map[int64]string{} // written value -> location of the Read of y it wrote
	var arrAt string
	prog := func(t *Thread) {
		x := t.NewVar("x", 0)
		want[1] = lineBelow(1)
		t.Write(x, 1)
		func() {
			want[2] = lineBelow(1)
			t.Write(x, 2)
		}()
		want[3] = smallWriteAt
		smallWrite(t, x)
		want[4] = noinlineWriteAt
		noinlineWrite(t, x)
		w := t.Write
		want[5] = lineBelow(1)
		w(x, 5)
		// A call spanning lines is at the line of its method name, the
		// line cmd/rffsite names the call's static site after.
		want[6] = lineBelow(1)
		t.Write(x,
			6)
		want[7] = lineBelow(2)
		t.
			Write(x, 7)
		// Two calls on one line share it, and an argument's call on the
		// next line has its own.
		y := t.NewVar("y", 8)
		want[8] = lineBelow(1)
		t.Write(x, t.Read(y))
		want[9], readAt[9] = lineBelow(1), lineBelow(2)
		t.Write(x,
			t.Read(y)+1)
		arrAt = lineBelow(1)
		t.NewVars("arr", 3, 0)
	}
	res := Run("loc", prog, Config{Scheduler: firstEnabled{}, Seed: 1})
	if res.Failure != nil {
		t.Fatalf("unexpected failure: %v", res.Failure)
	}
	seen := map[int64]bool{}
	arr := 0
	var readY string
	for _, ev := range res.Trace.Events {
		switch {
		case ev.Op == OpRead:
			readY = ev.Loc
		case ev.Op == OpWrite:
			if ev.Val >= 8 {
				wantRead := readAt[ev.Val]
				if wantRead == "" {
					wantRead = want[ev.Val]
				}
				if readY != wantRead {
					t.Errorf("Read(y) feeding Write(x, %d) recorded at %q, want %q", ev.Val, readY, wantRead)
				}
			}
			seen[ev.Val] = true
			if ev.Loc != want[ev.Val] {
				t.Errorf("Write(x, %d) recorded at %q, want %q", ev.Val, ev.Loc, want[ev.Val])
			}
		case ev.Op == OpVarInit && ev.VarStr != "x" && ev.VarStr != "y":
			arr++
			if ev.Loc != arrAt {
				t.Errorf("NewVars init of %s recorded at %q, want %q", ev.VarStr, ev.Loc, arrAt)
			}
		}
	}
	if len(seen) != len(want) || arr != 3 {
		t.Fatalf("saw writes %v and %d array inits, want values 1..%d and 3 inits", seen, arr, len(want))
	}
}

// TestCallerLocMatchesRuntimeCaller checks callerLoc against the
// runtime.Caller reference directly, from a plain frame and through an
// inlinable wrapper.
func TestCallerLocMatchesRuntimeCaller(t *testing.T) {
	ref := func(skip int) string {
		_, file, line, _ := runtime.Caller(skip + 1)
		return path.Base(file) + ":" + strconv.Itoa(line)
	}
	got, want := callerLoc(0), ref(0)
	if got.loc != want {
		t.Errorf("callerLoc(0) = %q, runtime.Caller gives %q", got.loc, want)
	}
	if got.key != locKeyOf(want) {
		t.Errorf("callerLoc(0) key %d, the location's key is %d", got.key, locKeyOf(want))
	}
	wrap := func() (string, string) { return callerLoc(1).loc, ref(1) }
	if got, want := wrap(); got != want {
		t.Errorf("callerLoc(1) through a closure = %q, runtime.Caller gives %q", got, want)
	}
}

func TestCallerLocWarmAllocatesNothing(t *testing.T) {
	probe := func() Site { return callerLoc(0) }
	probe() // resolve and cache the site
	if allocs := testing.AllocsPerRun(100, func() { _ = probe() }); allocs != 0 {
		t.Fatalf("warm callerLoc allocated %.1f objects/call, want 0", allocs)
	}
}

// TestRunAllocsIndependentOfEventCount pins the per-event allocation
// cost of a warm, recycled execution at zero: a loop of n Read+Write
// pairs must allocate the same at every n.
func TestRunAllocsIndependentOfEventCount(t *testing.T) {
	allocsAt := func(n int) float64 {
		prog := func(t *Thread) {
			x := t.NewVar("x", 0)
			for i := 0; i < n; i++ {
				t.Write(x, t.Read(x)+1)
			}
		}
		rec := NewRecycler()
		run := func() {
			res := Run("loop", prog, Config{Scheduler: firstEnabled{}, Seed: 1, Recycle: rec})
			if res.Failure != nil {
				t.Fatalf("unexpected failure: %v", res.Failure)
			}
			rec.Reclaim(res.Trace)
		}
		run() // warm the location cache, carrier pool and recycled arrays
		return testing.AllocsPerRun(20, run)
	}
	base := allocsAt(10)
	for _, n := range []int{100, 1000} {
		if got := allocsAt(n); got != base {
			t.Errorf("warm Run of %d Read+Write pairs allocated %.0f objects, want %.0f as at n=10", n, got, base)
		}
	}
}

func BenchmarkCallerLoc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = callerLoc(0)
	}
}
