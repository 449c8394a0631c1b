package exec

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// site is a resolved event location: the "file.go:line" string recorded
// on events and its key.
type site struct {
	loc string
	key locKey
}

// siteOf resolves an explicit location string, for the *At APIs.
func siteOf(loc string) site { return site{loc, locKeyOf(loc)} }

// locCache interns sites by return PC, so that repeated events at the same
// call site share one string and key, and only the first event at each
// site pays for symbolization and the key lookup.
var locCache sync.Map // uintptr -> site

// callerLoc returns the source location ("file.go:123", base name only) of
// the caller skip frames above callerLoc itself, with its key. It is the
// engine's analogue of the paper's instruction address l in op(x)@l: PUT
// code gets stable, human-readable event locations with zero annotation
// burden.
//
// The hot path is one stack unwind into a stack-allocated buffer plus a
// cache lookup; it allocates nothing. runtime.Caller would build a Frames
// iterator (two allocations) on every call. The location is the same
// string runtime.Caller(skip+1) yields, since that is itself this unwind
// followed by CallersFrames, inlined and wrapper frames included.
func callerLoc(skip int) site {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) < 1 {
		return siteOf("?")
	}
	if v, hit := locCache.Load(pcs[0]); hit {
		return v.(site)
	}
	return resolveLoc(pcs[0])
}

// resolveLoc symbolizes a return PC from runtime.Callers and caches the
// result. The fresh slice keeps callerLoc's buffer from escaping.
func resolveLoc(pc uintptr) site {
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	if frame.PC == 0 {
		return siteOf("?")
	}
	file := frame.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	v, _ := locCache.LoadOrStore(pc, siteOf(file+":"+strconv.Itoa(frame.Line)))
	return v.(site)
}
