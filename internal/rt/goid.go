package rt

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pacer"
)

// Goroutine identity. The shim maps runtime goroutine ids onto detector
// ThreadIDs: a goroutine spawned by an instrumented `go` statement is
// forked from its parent (GoSpawn runs in the parent, so the fork
// happens-before edge is recorded at the real spawn point), while a
// goroutine the shim has never seen (main, or one created by
// uninstrumented code) registers lazily as a root thread with no inbound
// edge — conservative in the direction of reporting, since missing edges
// can only make accesses look concurrent.
//
// The goroutine id is the runtime's own goid, the number runtime.Stack
// prints in its "goroutine 123 [running]:" header. On amd64, goid reads
// it straight out of the runtime's g: getg (goid_amd64.s) loads the
// current g from thread-local storage, and the id sits at a fixed offset
// within it. That offset is not taken from a table of Go versions. It is
// found once per process by calibrating against runtime.Stack (see
// calibrateGoid), so a release that moves or renames the field falls
// back to the parser instead of handing out wrong identities.
//
// parseGoid, the runtime.Stack parser, is that fallback and the only
// path on every other architecture (goid_other.go). It is why identity
// resolution has a frame-level cache at all: on a 2-vCPU Intel Xeon
// container with Go 1.24, runtime.Stack costs ~5.7 µs at shallow depth
// and ~1 µs more per frame, and it serializes on the runtime's global
// print lock. The field read costs a few nanoseconds, but a Slot still
// pays for itself: it saves the registry lookup on every hook after a
// frame's first. pacergo declares one Slot per instrumented function body
// and passes it to every hook there, and the first hook that runs fills
// it. A function literal gets its own Slot, never its enclosing frame's,
// because a closure may run on another goroutine.
//
// Registry reads take no lock. A G is bound into a 1024-entry table
// indexed by the low bits of its goid, and a lookup is one atomic load
// plus a compare against G.id, so the goroutines resolving their frames
// share no written cache line. Only a goroutine whose table entry another
// live G already holds goes to a striped, RWMutex-guarded map, and only
// GoExit of that same G removes it, from wherever it was bound. A root
// goroutine's G is never removed (no hook sees it exit), so it keeps its
// table entry for the life of the process.

// G is one instrumented goroutine's identity: the detector thread it
// operates as.
type G struct {
	t pacer.ThreadID
	// id is the runtime goroutine id the registry binds this G under:
	// set by GoStart for a spawned goroutine, by current for a root one.
	id int64
	// resolves counts the Slot resolutions that returned this G, the
	// unit of identity cost. Only the goroutine g stands for touches it,
	// so a plain increment suffices.
	resolves uint64
	// pages caches the shadow pages this goroutine touched, and syncs the
	// sync objects it resolved, under the same single-owner rule.
	pages pageCache
	syncs syncCache
	// tally counts the hooks this goroutine ended by itself, and the
	// shadow hits on its way to the detector, not yet published; n is
	// their total. Owner-only like resolves: see flush for when the
	// detector sees them.
	tally pacer.Tally
	n     uint32
}

// tallyBatch is the number of counts a G holds before publishing them.
const tallyBatch = 64

// counted notes one count just added to g's tally, publishing the tally
// once it holds tallyBatch counts.
func (g *G) counted() {
	if g.n++; g.n == tallyBatch {
		g.flush()
	}
}

// flush publishes g's tally to the detector (pacer.Detector.Count). Only
// g's own goroutine calls it: when the tally is full, before any hook it
// passes on to the detector (a claim, a claimed access, a sync op that is
// not a no-op, GoSpawn), at GoExit, and when it calls Stats (see
// FrontDoorStats). So Stats is exact for every goroutine that has exited,
// whose later hook reached the detector, or that is the caller, and no
// other goroutine holds more than tallyBatch-1 unpublished counts.
func (g *G) flush() {
	if g.n != 0 {
		state.det.Count(g.t, g.tally)
		g.tally, g.n = pacer.Tally{}, 0
	}
}

// Thread returns the detector thread this goroutine operates as.
func (g *G) Thread() pacer.ThreadID { return g.t }

// Slot is one function frame's goroutine handle. The zero value is
// unresolved; the first hook that runs in the frame resolves it and
// every later hook there reuses it. A Slot must not outlive or leave its
// frame: a frame runs on one goroutine, a Slot shared across frames
// might not.
type Slot struct {
	g *G
}

// G resolves the slot to the calling goroutine's identity. Deferred
// helpers take its result at defer time, so the slot itself never has
// to be kept alive past the defer statement.
func (s *Slot) G() *G {
	if s.g == nil {
		s.g = current()
	}
	return s.g
}

const (
	gShards = 64
	// gDirect is the size of the registry's direct-mapped table.
	gDirect = 1 << 10
)

// gRegistry maps goid → *G. A G sits in the direct-mapped table at its
// id's slot, which a lookup checks against G.id with one atomic load and
// no lock; the striped map holds only the Gs whose slot another live G
// already occupied. Binds and unbinds are per-goroutine-lifetime events.
type gRegistry struct {
	direct [gDirect]atomic.Pointer[G]
	shards [gShards]struct {
		mu sync.RWMutex
		m  map[int64]*G
		_  [24]byte
	}
}

var goroutines = newGRegistry()

func newGRegistry() *gRegistry {
	r := &gRegistry{}
	for i := range r.shards {
		r.shards[i].m = make(map[int64]*G)
	}
	return r
}

func (r *gRegistry) get(id int64) *G {
	if g := r.direct[uint64(id)&(gDirect-1)].Load(); g != nil && g.id == id {
		return g
	}
	sh := &r.shards[uint64(id)&(gShards-1)]
	sh.mu.RLock()
	g := sh.m[id]
	sh.mu.RUnlock()
	return g
}

// put binds g, whose id is set, into its direct slot, or into the striped
// map when another G holds the slot.
func (r *gRegistry) put(g *G) {
	if r.direct[uint64(g.id)&(gDirect-1)].CompareAndSwap(nil, g) {
		return
	}
	sh := &r.shards[uint64(g.id)&(gShards-1)]
	sh.mu.Lock()
	sh.m[g.id] = g
	sh.mu.Unlock()
}

// drop unbinds g from wherever put placed it; a G sharing its slot is
// left bound.
func (r *gRegistry) drop(g *G) {
	if r.direct[uint64(g.id)&(gDirect-1)].CompareAndSwap(g, nil) {
		return
	}
	sh := &r.shards[uint64(g.id)&(gShards-1)]
	sh.mu.Lock()
	delete(sh.m, g.id)
	sh.mu.Unlock()
}

// stackBufs recycles parseGoid's header buffers: runtime.Stack makes its
// argument escape, so a stack array would be one heap allocation per
// parse.
var stackBufs = sync.Pool{New: func() any { return new([64]byte) }}

// parseGoid parses the current goroutine's id from the runtime.Stack
// header ("goroutine 123 [running]:").
func parseGoid() int64 {
	buf := stackBufs.Get().(*[64]byte)
	n := runtime.Stack(buf[:], false)
	// len("goroutine ") == 10.
	id := int64(0)
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	stackBufs.Put(buf)
	return id
}

// current returns the calling goroutine's identity, registering it as a
// root thread on first sight.
func current() *G {
	id := goid()
	g := goroutines.get(id)
	if g == nil {
		g = &G{t: D().NewThread(), id: id}
		goroutines.put(g)
	}
	g.resolves++
	return g
}

// GoSpawn runs in the parent goroutine at a `go` statement, immediately
// before the spawn: it forks a new detector thread from the parent's
// frame identity, so everything the parent did up to the spawn
// happens-before the child. The returned handle is passed into the
// child, which binds it with GoStart.
func GoSpawn(h *Slot) *G {
	parent := h.G()
	parent.flush()
	return &G{t: D().Fork(parent.t)}
}

// GoStart runs first in a spawned goroutine, binding the handle GoSpawn
// made to the new goroutine's runtime identity.
func GoStart(g *G) {
	g.id = goid()
	goroutines.put(g)
}

// GoExit runs (deferred) last in a spawned goroutine: it publishes the
// goroutine's tally and releases the registry entry GoStart made, so the
// runtime id can be reused by an unrelated goroutine without inheriting
// this thread's identity.
func GoExit(g *G) {
	g.flush()
	goroutines.drop(g)
}
