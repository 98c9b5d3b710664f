package rt

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pacer"
)

// The stack depot interns the static capture sites the instrumentation
// injects (one per instrumented access position) and, lazily, one real
// call stack per site, so race reports carry source locations for both
// accesses without paying for a stack walk on every hook.
//
// SiteIDs are allocated here, densely from 1 (0 is reserved for
// "unknown"), and are the values instrumented code passes to R and W —
// the detector itself never allocates sites for instrumented programs.

// siteInfo is one interned capture site.
type siteInfo struct {
	file string // original source path, as the instrumenter saw it
	line int
	col  int

	// captured gates the one-time runtime stack capture: 0 = not yet,
	// 1 = in flight, 2 = published.
	captured atomic.Uint32
	pcs      []uintptr // runtime call stack, innermost first (set once)
}

// depot is the process-global site registry.
type depot struct {
	mu    sync.Mutex
	byLoc map[string]int
	sites atomic.Pointer[[]*siteInfo] // index = SiteID; grown copy-then-republish
}

var sites = func() *depot {
	d := &depot{byLoc: make(map[string]int)}
	empty := make([]*siteInfo, 1) // SiteID 0 = unknown
	d.sites.Store(&empty)
	return d
}()

// Site interns a capture site named by its original source position
// ("file.go:12" or "file.go:12:7") and returns its SiteID. Instrumented
// files call it from generated package-level variable initializers, so
// every site is interned exactly once per process before main runs.
func Site(loc string) int {
	d := sites
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byLoc[loc]; ok {
		return id
	}
	file, line, col := splitLoc(loc)
	tab := *d.sites.Load()
	id := len(tab)
	grown := make([]*siteInfo, id+1)
	copy(grown, tab)
	grown[id] = &siteInfo{file: file, line: line, col: col}
	d.sites.Store(&grown)
	d.byLoc[loc] = id
	return id
}

// splitLoc parses "file:line" or "file:line:col"; a malformed loc keeps
// the whole string as the file with line 0.
func splitLoc(loc string) (file string, line, col int) {
	rest := loc
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		if n, err := strconv.Atoi(rest[i+1:]); err == nil {
			rest, line = rest[:i], n
			if j := strings.LastIndexByte(rest, ':'); j >= 0 {
				if n2, err := strconv.Atoi(rest[j+1:]); err == nil {
					return rest[:j], n2, line
				}
			}
			return rest, line, 0
		}
	}
	return loc, 0, 0
}

// siteByID returns the interned site, or nil for unknown/foreign ids.
func siteByID(id int) *siteInfo {
	tab := *sites.sites.Load()
	if id <= 0 || id >= len(tab) {
		return nil
	}
	return tab[id]
}

// noteCapture records one real call stack for the site the first time an
// access there reaches the detector (one dismissed unclaimed does not). The fast path after capture is a single
// atomic load.
func noteCapture(id int) {
	s := siteByID(id)
	if s == nil || s.captured.Load() == 2 {
		return
	}
	if !s.captured.CompareAndSwap(0, 1) {
		return
	}
	var pcs [depotMaxFrames]uintptr
	// Skip runtime.Callers, noteCapture, and the rt hook that called it;
	// deeper rt frames are filtered at symbolization time.
	n := runtime.Callers(3, pcs[:])
	s.pcs = append([]uintptr(nil), pcs[:n]...)
	s.captured.Store(2)
}

// depotMaxFrames bounds a captured stack.
const depotMaxFrames = 32

// frames resolves the site to a pacer stack: frame 0 is the interned
// source position of the access itself, and later frames are the
// symbolized call stack captured at the site's first execution, with the
// shim's own frames filtered out.
func (s *siteInfo) frames() []pacer.Frame {
	out := []pacer.Frame{{File: s.file, Line: s.line}}
	if s.captured.Load() != 2 || len(s.pcs) == 0 {
		return out
	}
	iter := runtime.CallersFrames(s.pcs)
	for {
		fr, more := iter.Next()
		if fr.Function != "" && !strings.HasPrefix(fr.Function, "pacer/internal/rt.") {
			out = append(out, pacer.Frame{Function: fr.Function, File: fr.File, Line: fr.Line})
			if len(out) >= depotMaxFrames {
				break
			}
		}
		if !more {
			break
		}
	}
	// The innermost symbolized frame names the function containing the
	// access; surface it on frame 0 too.
	if len(out) > 1 {
		out[0].Function = out[1].Function
	}
	return out
}

// loc renders the site's interned source position.
func (s *siteInfo) loc() string {
	if s.line == 0 {
		return s.file
	}
	return fmt.Sprintf("%s:%d", s.file, s.line)
}

// SiteLoc returns the interned "file:line" of a SiteID, or "site N" for
// ids the depot does not know (e.g. hand-driven detector use).
func SiteLoc(id int) string {
	if s := siteByID(id); s != nil {
		return s.loc()
	}
	return fmt.Sprintf("site %d", id)
}

// SiteStack returns the resolved stack for a SiteID: at least the interned
// source position, plus the captured caller frames once the site has
// executed. Nil for unknown ids.
func SiteStack(id int) []pacer.Frame {
	if s := siteByID(id); s != nil {
		return s.frames()
	}
	return nil
}
