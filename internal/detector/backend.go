package detector

import (
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// This file defines what a backend may offer beyond Detector. The public
// front-end mounts any Detector and asks it, once, for four optional
// interfaces: Sharded (the concurrent mount, with the backend's ordered
// list of lock-free access dismissals), Sampler (global
// sampling periods), ThreadReuser (identifier reuse and thread lifetimes)
// and Accounted (operation counters and space). A backend without one
// gets the conservative behaviour: fully serialized with no dismissals,
// always-sample semantics, fresh identifiers, and zeroed counters.

// Sharded is implemented by detectors whose Read/Write paths admit the
// concurrent front-end's sharded reader-writer discipline:
//
//   - Read and Write calls for variables in distinct shards (ShardOf) may
//     run concurrently, provided same-shard calls are serialized by the
//     caller, no other Detector method is in flight, and every thread
//     identifier was announced via EnsureThreadSlots before its first
//     shared-mode access.
//   - State returns the backend's published sampling state, one
//     detector.State for the backend's lifetime, so a front-end fetches
//     it once and loads its word directly. The word may be read lock-free
//     at any time. Its bit 0 is the sampling flag and its upper bits
//     count sampling transitions, so two equal loads bracketing another
//     probe prove the flag held throughout.
//   - Stages lists the backend's lock-free access dismissals, in the
//     order the front-end tries them before the locked path (see Stage).
//   - SyncNoOp may be called lock-free at any time by the event's own
//     thread: true proves the synchronization event was a no-op of the
//     analysis, apart from its counters, at some instant inside the call
//     (see shardbase's SyncNoOp for the rules). Backends that publish no
//     version epochs report false.
//
// All other Detector methods retain their exclusive-access requirement.
type Sharded interface {
	Detector
	// Shards returns the number of variable-metadata shards; the caller's
	// striped locks must cover indices [0, Shards()).
	Shards() int
	// ShardOf maps a variable to its metadata shard.
	ShardOf(x event.Var) int
	// State returns the atomically published sampling state. It returns
	// the same pointer on every call.
	State() *State
	// Stages returns the backend's dismissal chain. The front-end calls it
	// once, at mount.
	Stages() []Stage
	// SyncNoOp reports whether the Acquire, Release, VolRead or VolWrite
	// event e is provably a no-op, so the caller may dismiss it after
	// counting it.
	SyncNoOp(e event.Event) bool
	// EnsureThreadSlots pre-grows the thread table to hold identifiers
	// below n. Requires exclusive access.
	EnsureThreadSlots(n int)
}

// The names of the access dismissal stages, as a backend's Stages lists
// them and `racereplay backends` prints them.
const (
	// StageNoMetadata dismisses an access outside sampling periods to a
	// variable holding no metadata: the paper's inline fast path.
	StageNoMetadata = "no-metadata"
	// StageSameEpoch dismisses an access that repeats the variable's
	// current epoch, FastTrack's own no-op case.
	StageSameEpoch = "same-epoch"
	// StageOwnedAccess performs a race-free access's full metadata update
	// under a per-variable ownership word instead of the locks.
	StageOwnedAccess = "owned-access"
	// StageBurstSkip consumes a cold (method, thread) burst sampler's skip
	// decision.
	StageBurstSkip = "burst-skip"
)

// Stage is one lock-free dismissal of a data access. The front-end tries
// a backend's stages in order, without its epoch or shard locks, and
// sends the access to the locked Read or Write only when every stage
// refuses it.
//
// Try reports whether the stage fully handled rd(t, x) or wr(t, x) at site
// within method: the locked path, at some instant inside the call, would
// have ended with exactly the effect Try had, and reported no race. A
// true result dismisses the access; the caller counts it. A false result
// must leave the backend as it found it. Try may run concurrently with
// any operation of another thread; the caller keeps its standing rule
// that one thread's operations are serialized, which keeps the thread's
// own published state stable across the call.
type Stage struct {
	Name string
	Try  func(t vclock.Thread, x event.Var, site event.Site, method uint32, write bool) bool
}

// ThreadReuser is implemented by detectors that track thread lifetimes and
// can soundly recycle the identifiers of joined threads (the
// accordion-clocks direction the paper recommends for production).
type ThreadReuser interface {
	// ReusableThread returns a joined thread's identifier that parent may
	// hand to the child of its next Fork, or reports false when none is
	// safely recyclable for parent. An implementation may update memo
	// state of parent's (core keeps a watermark over its free list), so
	// it must be called under the detector's exclusive lock, as
	// pacer.Detector.Fork does; the backend's Fork revives the slot it is
	// given.
	ReusableThread(parent vclock.Thread) (vclock.Thread, bool)
	// ThreadExit marks thread t terminated, so the detector can stop
	// advancing its clock: a terminated thread performs no further
	// accesses. pacer.Detector.Join calls it for the joined thread; a
	// simulator that knows when its threads finish calls it then.
	ThreadExit(t vclock.Thread)
}

// Accounted is implemented by detectors that account for their work and
// their space: the operation counters of Table 3, and the live metadata
// of Figure 10. Every method requires exclusive access.
type Accounted interface {
	// Stats returns the operation counters. The pointer is to a snapshot
	// the next call may overwrite.
	Stats() *Counters
	// VarsTracked returns how many variables currently hold metadata.
	VarsTracked() int
	// MetadataWords approximates the live metadata in 8-byte words.
	MetadataWords() int
}
