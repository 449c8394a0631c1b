package exec

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// locCache interns "file.go:line" strings by return PC, so that repeated
// events at the same call site share one string and only the first event
// at each site pays for symbolization.
var locCache sync.Map // uintptr -> string

// callerLoc returns the source location ("file.go:123", base name only) of
// the caller skip frames above callerLoc itself. It is the engine's analogue
// of the paper's instruction address l in op(x)@l: PUT code gets stable,
// human-readable event locations with zero annotation burden.
//
// The hot path is one stack unwind into a stack-allocated buffer plus a
// cache lookup; it allocates nothing. runtime.Caller would build a Frames
// iterator (two allocations) on every call. The result is the same string
// runtime.Caller(skip+1) yields, since that is itself this unwind followed
// by CallersFrames, inlined and wrapper frames included.
func callerLoc(skip int) string {
	var pcs [1]uintptr
	if runtime.Callers(skip+2, pcs[:]) < 1 {
		return "?"
	}
	if v, hit := locCache.Load(pcs[0]); hit {
		return v.(string)
	}
	return resolveLoc(pcs[0])
}

// resolveLoc symbolizes a return PC from runtime.Callers and caches the
// result. The fresh slice keeps callerLoc's buffer from escaping.
func resolveLoc(pc uintptr) string {
	frame, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	if frame.PC == 0 {
		return "?"
	}
	file := frame.File
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	v, _ := locCache.LoadOrStore(pc, file+":"+strconv.Itoa(frame.Line))
	return v.(string)
}
