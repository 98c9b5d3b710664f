// Package shardbase holds the shard plumbing every concurrently-mounted
// backend shares: the stripe geometry behind ShardOf, the lock-free
// metadata presence filter behind MetaPossible, the grow-only direct
// variable index behind the lock-free fast paths, the per-thread
// epoch/clock publication table those paths read, and the version-epoch
// tables behind SyncNoOp. Store assembles the pieces, with the published
// sampling state (a detector.State), into one embeddable metadata store
// built from one Config, so every sharded backend (PACER,
// FASTTRACK, O(1)-samples, DJIT+, and LITERACE through its FASTTRACK core)
// implements the detector.Sharded contract by composition instead of by
// transcription.
//
// Every component keeps the publication discipline its consumer documents:
// presence counts are incremented before an insert and decremented after a
// delete, so a zero read proves absence at the instant of the load; the
// state word packs the sampling flag (bit 0) with a transition count, so
// two equal loads bracketing a probe prove the flag held throughout; index,
// thread-table and version-epoch-table growth copy-then-republish, so
// lock-free readers always hold a consistent array.
package shardbase

import (
	"sync"
	"sync/atomic"

	"pacer/internal/event"
	"pacer/internal/vclock"
)

const (
	// DefaultShards is the shard count a Config selects when it leaves
	// Shards zero.
	DefaultShards = 64
	// presenceBuckets sizes the lock-free metadata presence filter: a
	// count of tracked variables per hash bucket, readable without any
	// lock. A zero bucket proves the variables hashing to it hold no
	// metadata; a nonzero bucket only sends the caller to the slow path.
	presenceBuckets = 1 << 12
	// fib is the Fibonacci-hashing multiplier shared by the shard map and
	// the presence filter, so both spread sequential identifiers evenly.
	fib = 2654435761
)

// Geometry is the stripe layout of a sharded backend: a power-of-two shard
// count and the Fibonacci hash mapping variables onto it. The zero value is
// unusable; construct with NewGeometry.
type Geometry struct {
	shards int
	shift  uint32 // 32 - log2(shards): ShardOf keeps the hash's high bits
}

// NewGeometry rounds the requested shard count up to a power of two,
// substituting DefaultShards when the request is zero or negative.
func NewGeometry(requested int) Geometry {
	n := requested
	if n <= 0 {
		n = DefaultShards
	}
	bits := uint32(0)
	for 1<<bits < n {
		bits++
	}
	return Geometry{shards: 1 << bits, shift: 32 - bits}
}

// Shards returns the rounded shard count; the front-end's striped locks
// must cover indices [0, Shards()).
func (g Geometry) Shards() int { return g.shards }

// ShardOf maps a variable to its metadata shard (Fibonacci hashing on the
// identifier's high output bits).
func (g Geometry) ShardOf(x event.Var) int {
	return int((uint32(x) * fib) >> g.shift)
}

// Presence is the lock-free metadata presence filter behind MetaPossible:
// a per-bucket count of tracked variables. Add before inserting metadata
// and Remove after deleting it, so a zero Possible read proves absence for
// the metadata's whole lifetime.
type Presence struct {
	buckets []atomic.Int32
}

// NewPresence returns an empty presence filter.
func NewPresence() *Presence {
	return &Presence{buckets: make([]atomic.Int32, presenceBuckets)}
}

func (p *Presence) bucket(x event.Var) *atomic.Int32 {
	return &p.buckets[(uint32(x)*fib)&(presenceBuckets-1)]
}

// Add records that x is about to gain metadata. Call before the insert.
func (p *Presence) Add(x event.Var) { p.bucket(x).Add(1) }

// Remove records that x's metadata was deleted. Call after the delete.
func (p *Presence) Remove(x event.Var) { p.bucket(x).Add(-1) }

// Possible reports whether x might currently hold metadata: false proves
// absence at the instant of the load; true may be a hash collision and
// only obliges the caller to take the slow path.
func (p *Presence) Possible(x event.Var) bool { return p.bucket(x).Load() > 0 }

// Index is the grow-only direct variable index behind the lock-free fast
// paths: variable identifier → metadata record, readable without any lock.
// All writes (slot stores and growth) serialize on an internal mutex;
// growth copies and republishes, so readers always hold a consistent
// array. Identifiers at or above the configured cap are never indexed —
// they simply take the caller's locked path.
type Index[T any] struct {
	p      atomic.Pointer[[]atomic.Pointer[T]]
	growMu sync.Mutex
	cap    uint32
}

const (
	// DefaultIndexCap bounds the direct index when the Config leaves the
	// cap zero. Identifiers at or above the cap (rarely produced
	// by the front-end's sequential allocator) take the locked path.
	DefaultIndexCap = 1 << 22
	// indexMin is the initial direct-index capacity.
	indexMin = 1 << 10
)

// NewIndex returns an index bounded by the given cap after Config's
// IndexCap rule: 0 selects DefaultIndexCap, negative disables the
// index entirely (every Lookup misses).
func NewIndex[T any](capOpt int) *Index[T] {
	ix := &Index[T]{}
	switch {
	case capOpt > 0:
		ix.cap = uint32(capOpt)
	case capOpt < 0:
		ix.cap = 0
	default:
		ix.cap = DefaultIndexCap
	}
	return ix
}

// Cap returns the resolved identifier cap (0 when the index is disabled).
func (ix *Index[T]) Cap() int { return int(ix.cap) }

// Lookup returns x's published record, or nil when x is unindexed. Safe to
// call lock-free at any time.
func (ix *Index[T]) Lookup(x event.Var) *T {
	tab := ix.p.Load()
	if tab == nil || int(uint32(x)) >= len(*tab) {
		return nil
	}
	return (*tab)[x].Load()
}

// Publish stores x's record in the index (a no-op past the cap). Typically
// called once per variable, from under its shard lock; the internal mutex
// serializes with inserts from other shards and makes growth
// copy-then-republish safe.
func (ix *Index[T]) Publish(x event.Var, m *T) {
	if uint32(x) >= ix.cap {
		return
	}
	ix.growMu.Lock()
	tab := ix.p.Load()
	if tab == nil || int(uint32(x)) >= len(*tab) {
		n := indexMin
		if tab != nil {
			n = len(*tab)
		}
		for n <= int(uint32(x)) {
			n *= 2
		}
		grown := make([]atomic.Pointer[T], n)
		if tab != nil {
			for i := range *tab {
				grown[i].Store((*tab)[i].Load())
			}
		}
		ix.p.Store(&grown)
		tab = &grown
	}
	(*tab)[x].Store(m)
	ix.growMu.Unlock()
}

// threadSlot is one thread's published state: its packed current epoch
// c@t, and a pointer to its clock for lock-free paths that must evaluate
// full happens-before queries (the clock itself is mutated only by the
// thread's own serialized operations, so a reader holding the pointer
// during one of t's accesses reads a stable clock).
type threadSlot struct {
	epoch atomic.Uint64
	clock atomic.Pointer[vclock.VC]
}

// ThreadPub publishes per-thread epochs and clock pointers for the
// lock-free fast paths (same-epoch dismissal, owned access). Grown only by
// Ensure under the caller's exclusive lock; slots are written by the
// owning thread's operations — which the caller serializes — and read
// lock-free only by that thread's own probes.
type ThreadPub struct {
	p atomic.Pointer[[]threadSlot]
}

// Ensure grows the table to hold thread identifiers below n. Requires the
// caller's exclusive access (it races with nothing but itself); lock-free
// readers holding the old table miss the new slots and fall back to the
// locked path.
func (tp *ThreadPub) Ensure(n int) {
	tab := tp.p.Load()
	cur := 0
	if tab != nil {
		cur = len(*tab)
	}
	if cur >= n {
		return
	}
	grown := make([]threadSlot, n)
	for i := 0; i < cur; i++ {
		grown[i].epoch.Store((*tab)[i].epoch.Load())
		grown[i].clock.Store((*tab)[i].clock.Load())
	}
	tp.p.Store(&grown)
}

// Publish records thread t's current epoch and clock. The epoch store is
// skipped when the published value is already current — the common case at
// acquire-heavy synchronization, where t's own clock component does not
// advance — so sync-heavy mixes stop hammering the publication cacheline.
// Only t's own (caller-serialized) operations may publish t's slot.
func (tp *ThreadPub) Publish(t vclock.Thread, c *vclock.VC) {
	tab := tp.p.Load()
	if tab == nil || int(t) >= len(*tab) {
		return
	}
	slot := &(*tab)[t]
	// Clock pointer first: a reader that observes the epoch must be able
	// to observe the clock. The pointer is stable per thread (clocks grow
	// in place), so this store happens once.
	if slot.clock.Load() != c {
		slot.clock.Store(c)
	}
	e := uint64(vclock.MakeEpoch(t, c.Get(t)))
	if slot.epoch.Load() != e {
		slot.epoch.Store(e)
	}
}

// Epoch returns t's published packed epoch, or zero when t has no slot or
// has not published (zero is unambiguous: thread clocks start at 1, so a
// live epoch never packs to zero).
func (tp *ThreadPub) Epoch(t vclock.Thread) uint64 {
	tab := tp.p.Load()
	if tab == nil || int(t) >= len(*tab) {
		return 0
	}
	return (*tab)[t].epoch.Load()
}

// Clock returns t's published clock pointer, or nil. Callers may read the
// clock only while serialized with t's operations (i.e. from t's own
// access path).
func (tp *ThreadPub) Clock(t vclock.Thread) *vclock.VC {
	tab := tp.p.Load()
	if tab == nil || int(t) >= len(*tab) {
		return nil
	}
	return (*tab)[t].clock.Load()
}
