package detector

import (
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// This file defines the optional capability interfaces a backend may
// implement beyond Detector. The public front-end mounts any Detector and
// discovers capabilities by type assertion: a backend that implements
// Sharded gets the concurrent sharded ingestion path and the lock-free
// non-sampling fast path; one that does not is driven fully serialized
// under the front-end's exclusive lock, which is always correct because
// the base Detector contract is single-threaded. Sampler, Counted,
// MemoryAccounted, VarAccounted, ThreadLifecycle, and ThreadReuser degrade
// the same way: absent the capability, the front-end substitutes the
// conservative behavior (always-sample semantics, zeroed counters, no
// identifier reuse).

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
//     it once and loads its word directly. The word and MetaPossible may
//     be read lock-free at any time; they are the probes behind the
//     non-sampling fast path. The word's bit 0 is the sampling flag and
//     its upper bits count sampling transitions, so two equal loads
//     bracketing a MetaPossible load prove the flag held throughout; a
//     false MetaPossible proves the variable held no metadata at the
//     instant of the load.
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
	// MetaPossible reports whether x might currently hold metadata.
	MetaPossible(x event.Var) bool
	// SyncNoOp reports whether the Acquire, Release, VolRead or VolWrite
	// event e is provably a no-op, so the caller may dismiss it after
	// counting it.
	SyncNoOp(e event.Event) bool
	// EnsureThreadSlots pre-grows the thread table to hold identifiers
	// below n. Requires exclusive access.
	EnsureThreadSlots(n int)
}

// BurstSampler is implemented by detectors whose per-access sampling
// decision depends only on a per-(method, thread) state machine (LITERACE's
// bursty adaptive sampler), so a "skip this access" decision can be taken
// without the caller's exclusive lock. TrySkip may be called concurrently
// with any operation of other threads; the caller keeps its standing rule
// that a single thread's operations are serialized, which makes the
// probe-then-analyze sequence atomic per (method, thread) key.
//
// TrySkip returns true when the sampler decides this access is skipped —
// the analysis would have been a no-op — consuming that decision, and the
// caller must not route the access to Read/Write. When it returns false
// the sampler state is left untouched: the caller routes the access to
// Read/Write under its usual locking, and the detector takes the identical
// decision there. Implementations must make decision streams per-key
// deterministic (independent of cross-thread interleaving), so a
// serialized replay of a recorded trace reproduces every decision.
type BurstSampler interface {
	TrySkip(method uint32, t vclock.Thread) bool
}

// EpochFast is implemented by Sharded detectors that publish enough state
// atomically to prove, without any lock, that an access is a same-epoch
// no-op — FastTrack's headline fast path (the majority of reads and writes
// repeat an access the current epoch already recorded, and the analysis
// leaves every structure untouched).
//
// TrySameEpoch reports whether a serialized detector observing this
// operation at the instant of the internal loads would change no metadata
// and report no race; a true result lets the caller dismiss the access
// entirely. A false result proves nothing and routes the access to the
// locked path. Implementations must publish their per-variable epoch
// mirrors conservatively — cleared before the locked path mutates the
// underlying state and republished only after it settles — so a true
// result is sound at some linearization point between two locked
// operations on the variable. The caller keeps its standing rule that a
// single thread's operations are serialized, which makes the thread's own
// epoch stable across the probe.
type EpochFast interface {
	TrySameEpoch(t vclock.Thread, x event.Var, write bool) bool
}

// OwnedAccess is implemented by Sharded detectors that can perform the
// full analysis and metadata update of an access without the caller's
// locks, by claiming a per-variable ownership word with a single
// CompareAndSwap (the SmartTrack-style exclusive writer/reader ownership
// transition). It serves what EpochFast cannot: accesses that mutate
// metadata but report no race — chiefly the shared-read case, where a
// multi-entry read map publishes no epoch mirror and every read would
// otherwise serialize on the variable's shard lock.
//
// TryOwnedAccess returns true when the access was fully handled: the
// analysis ran against the thread's published clock, no race was found,
// and the metadata update was performed under ownership with the same
// mirror publication discipline the locked path uses. It returns false —
// with the variable's record untouched — when the ownership claim fails
// (contention), when the thread or variable has no published state, or
// when a race would have to be reported; the caller then routes the access
// through the locked path, which redoes the analysis from the same settled
// state and reports through its usual channel.
//
// The implementation must guarantee that every other path that mutates or
// inspects a variable's record claims the same ownership word, so a
// successful claim confers exclusive access to the record; the caller
// keeps its standing rule that a single thread's operations are
// serialized, which keeps the thread's clock stable across the call.
type OwnedAccess interface {
	TryOwnedAccess(t vclock.Thread, x event.Var, site event.Site, write bool) bool
}

// ThreadReuser is implemented by detectors that can soundly recycle the
// identifiers of dead, joined threads whose metadata has been discarded
// (the accordion-clocks direction the paper recommends for production).
type ThreadReuser interface {
	// ReusableThread returns a revived thread slot for a brand-new thread,
	// or reports false when none is safely recyclable.
	ReusableThread() (vclock.Thread, bool)
}

// VarAccounted is implemented by detectors that can report how many
// variables currently hold metadata, for space accounting (Figure 10's
// companion to MemoryAccounted).
type VarAccounted interface {
	VarsTracked() int
}

// ArenaStats is a snapshot of a metadata arena's occupancy and traffic,
// surfaced through the front-end's Stats and the fleet's /metrics.
type ArenaStats struct {
	// SlabsLive is the number of slabs currently acquired (clock storage
	// and variable records); SlabsFree the number parked on free lists.
	SlabsLive, SlabsFree uint64
	// Recycles counts acquisitions served from a free list; Misses counts
	// acquisitions that fell through to a fresh heap allocation.
	Recycles, Misses uint64
	// Trimmed counts free slabs handed back to the garbage collector.
	Trimmed uint64
}

// ArenaAccounted is implemented by detectors that can run on a slab
// arena. The bool result reports whether an arena is actually enabled;
// a false return means the detector is on the default heap allocator and
// the stats are zero.
type ArenaAccounted interface {
	ArenaStats() (ArenaStats, bool)
}
