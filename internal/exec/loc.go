package exec

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Site is a resolved event location: the "file.go:line" string recorded
// on events, and its key. It is the engine's analogue of the paper's
// instruction address l in op(x)@l, which E9Patch fixes once when it
// rewrites the binary.
//
// A site is resolved one of two ways:
//
//   - statically, once: SiteAt resolves a location string, and every
//     event method has an …At form (ReadAt, LockAt, GoAt, ...) taking a
//     Site first. cmd/rffsite generates a package-level Site per call site
//     ("file.go:N", the line of the method name) and rewrites each event
//     call to its …At form, so the program pays no per-event lookup;
//   - dynamically, per event: the plain forms (Read, Lock, Go, ...) call
//     their …At form with callerLoc(1), which recovers the same string by
//     unwinding to the caller. PUT code needs no annotation at all.
//
// The zero Site is no location; an event at it panics.
type Site struct {
	loc string
	key locKey
}

// SiteAt resolves the location string loc once, for the …At event forms.
func SiteAt(loc string) Site { return Site{loc, locKeyOf(loc)} }

// locCache interns sites by return PC, so that repeated events at the same
// call site share one string and key, and only the first event at each
// site pays for symbolization and the key lookup.
var locCache sync.Map // uintptr -> Site

// callerLoc returns the site ("file.go:123", base name only) of the
// caller skip frames above callerLoc itself: the fallback for event calls
// without a static Site.
//
// The hot path is one stack unwind into a stack-allocated buffer plus a
// cache lookup; it allocates nothing. runtime.Caller would build a Frames
// iterator (two allocations) on every call. The location is the same
// string runtime.Caller(skip+1) yields, since that is itself this unwind
// followed by CallersFrames, inlined and wrapper frames included. For a
// call spanning several lines that is the line of the method name, which
// is the line cmd/rffsite names its static site after.
func callerLoc(skip int) Site {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) < 1 {
		return SiteAt("?")
	}
	if v, hit := locCache.Load(pcs[0]); hit {
		return v.(Site)
	}
	return resolveLoc(pcs[0])
}

// resolveLoc symbolizes a return PC from runtime.Callers and caches the
// result. The fresh slice keeps callerLoc's buffer from escaping.
func resolveLoc(pc uintptr) Site {
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	if frame.PC == 0 {
		return SiteAt("?")
	}
	file := frame.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	v, _ := locCache.LoadOrStore(pc, SiteAt(file+":"+strconv.Itoa(frame.Line)))
	return v.(Site)
}
