package shardbase

import (
	"fmt"

	"pacer/internal/arena"
	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Config is the metadata-store configuration every sharded backend reads.
// The zero value is the default store: 64 shards, heap allocation, flat
// clocks, and the default index cap.
type Config struct {
	// Shards is the number of independent variable-metadata shards
	// (rounded up to a power of two, default 64). Accesses to variables in
	// distinct shards may run concurrently under the detector.Sharded
	// locking contract.
	Shards int
	// Arena backs vector clocks and variable records with a slab arena
	// (internal/arena) striped like the variable shards: records a backend
	// discards are recycled through per-shard free lists instead of
	// churning the garbage collector. Race reports are identical either way
	// (the differential suites enforce this); only allocation changes.
	Arena bool
	// ArenaDebug additionally maintains the arena's outstanding-slab
	// ledger, so invariant tests can prove every acquired slab is released
	// exactly once. Implies Arena; test-only (the ledger serializes every
	// acquire and release).
	ArenaDebug bool
	// Clock selects the timestamp representation of thread and
	// synchronization clocks: "" or "flat" is the plain vector clock;
	// "tree" mounts the last-update tree index (vclock.Tree), making
	// synchronization joins and release copies cost proportional to the
	// entries that changed instead of the thread count. Any other value
	// panics. Race reports are identical either way (the conformance matrix
	// enforces this).
	Clock string
	// IndexCap bounds the direct variable index behind a backend's
	// lock-free fast paths: variables with identifiers at or above the cap
	// are never indexed and take the locked path (correct, just slower).
	// 0 selects DefaultIndexCap; negative disables the index. Backends
	// without lock-free fast paths keep no index whatever the cap.
	IndexCap int
}

// Shard is one slice of a backend's variable table together with the
// access-path counters accumulated for it. The trailing pad keeps shards
// on distinct cache lines so parallel accesses do not false-share.
type Shard[M any] struct {
	Vars  map[event.Var]*M
	Stats detector.Counters
	_     [64]byte
}

// probes is the non-generic half of Store: everything the lock-free
// probes and the clock allocators read, kept off the generic type so the
// hot probes compile as plain methods.
type probes struct {
	geo Geometry
	// presence counts tracked variables per hash bucket, maintained
	// increment-before-insert and decrement-after-delete, so a zero read
	// proves absence at the instant of the load.
	presence *Presence
	// State publishes the sampling flag (bit 0) and a transition count
	// (upper bits). Always-on backends set it once with SetAlwaysOn.
	State State
	arena *arena.Arena
	// clocks supplies thread and synchronization clocks: the tree-capable
	// wrapper when tree clocks are mounted, the arena stripes otherwise,
	// nil on the flat heap path.
	clocks func(int) vclock.Allocator
	// sync publishes the version epochs behind SyncNoOp; nil unless the
	// backend called EnableSyncEpochs.
	syncEpochs *syncTables
}

// Store is a sharded backend's variable-metadata store, embedded by value
// in the backend's Detector: the stripe geometry, the per-shard record maps
// and counters, the presence filter, the direct index, the arena with its
// record pool, and the clock allocators, built from one Config. It defines
// the detector.Sharded probes and the accounting methods every sharded
// backend shares; the backend keeps only its record type M, its access
// analysis, and its synchronization wrappers. Call Init before use.
type Store[M any] struct {
	probes
	// Table holds the variable shards, indexed by ShardOf.
	Table []Shard[M]
	// Index is the direct variable index behind the lock-free fast paths.
	// It is disabled (every Lookup misses) unless Init was asked for it.
	Index *Index[M]
	// SyncStats holds the synchronization-path counters; access counters
	// live per shard.
	SyncStats detector.Counters
	snap      detector.Counters // Stats() aggregation scratch
	pool      *arena.Records[M]
	report    detector.Reporter
}

// Init builds the store from cfg. report receives the races passed to
// Emit. indexed makes Insert publish records in Index, for backends with
// lock-free fast paths. reset scrubs a record Delete recycles before the
// arena's record pool parks it (nil for backends that never delete). Init
// panics on an unknown cfg.Clock.
func (s *Store[M]) Init(report detector.Reporter, cfg Config, indexed bool, reset func(*M)) {
	s.geo = NewGeometry(cfg.Shards)
	s.presence = NewPresence()
	s.report = report
	s.Table = make([]Shard[M], s.geo.Shards())
	for i := range s.Table {
		s.Table[i].Vars = make(map[event.Var]*M)
	}
	capOpt := -1
	if indexed {
		capOpt = cfg.IndexCap
	}
	s.Index = NewIndex[M](capOpt)
	if cfg.Arena || cfg.ArenaDebug {
		s.arena = arena.New(arena.Options{Shards: len(s.Table), Debug: cfg.ArenaDebug})
		s.pool = arena.NewRecords[M](s.arena, reset)
		s.clocks = s.arena.Shard
	}
	switch cfg.Clock {
	case "", "flat":
	case "tree":
		// Tree clocks wrap whatever allocator sits underneath: on the
		// arena path the index's aux vectors draw from the same slabs as
		// the entry arrays, so nothing falls back to the heap.
		if s.arena != nil {
			s.clocks = vclock.TreeStriped(s.arena.Shard)
		} else {
			s.clocks = vclock.TreeHeap(s.geo.Shards())
		}
	default:
		panic(fmt.Sprintf("shardbase: unknown clock %q (known: flat, tree)", cfg.Clock))
	}
}

// Shards returns the number of variable-metadata shards; the caller's
// striped locks must cover indices [0, Shards()).
func (p *probes) Shards() int { return p.geo.Shards() }

// ShardOf maps a variable to its metadata shard (Fibonacci hashing on the
// identifier's high output bits).
func (p *probes) ShardOf(x event.Var) int { return p.geo.ShardOf(x) }

// StateWord returns the atomically published sampling state: bit 0 is the
// sampling flag and the upper bits count transitions, so two equal loads
// bracketing another atomic load prove the sampling flag held throughout.
// Always-on backends publish the constant 1.
func (p *probes) StateWord() uint64 { return p.State.Word() }

// MetaPossible reports whether variable x might currently hold metadata.
// It is safe to call without any lock: a false result proves x held no
// metadata at the instant of the internal load; a true result may be a
// hash collision and only obliges the caller to take the slow path.
func (p *probes) MetaPossible(x event.Var) bool { return p.presence.Possible(x) }

// Arena returns the slab arena, or nil on the heap path.
func (p *probes) Arena() *arena.Arena { return p.arena }

// VCAlloc returns stripe i's plain slab allocator, or nil on the heap
// path. Clocks that take arbitrary component assignments (version vectors,
// per-variable clocks) draw from it even when tree clocks are mounted.
func (p *probes) VCAlloc(i int) vclock.Allocator {
	if p.arena == nil {
		return nil
	}
	return p.arena.Shard(i)
}

// ClockAlloc returns the allocator for stripe i's thread and
// synchronization clocks, or nil on the flat heap path.
func (p *probes) ClockAlloc(i int) vclock.Allocator {
	if p.clocks == nil {
		return nil
	}
	return p.clocks(i)
}

// Clocks returns the striped clock source for detector.BaseSync's
// SetAllocator (nil on the flat heap path).
func (p *probes) Clocks() func(int) vclock.Allocator { return p.clocks }

// ArenaStats implements detector.ArenaAccounted. The bool result is false
// on the heap path.
func (p *probes) ArenaStats() (detector.ArenaStats, bool) {
	if p.arena == nil {
		return detector.ArenaStats{}, false
	}
	st := p.arena.Stats()
	return detector.ArenaStats{
		SlabsLive: st.Live,
		SlabsFree: st.Free,
		Recycles:  st.Recycles,
		Misses:    st.Misses,
		Trimmed:   st.Trimmed,
	}, true
}

// NewVC draws a fresh clock from a, falling back to the heap when a is nil.
func NewVC(a vclock.Allocator, n int) *vclock.VC {
	if a != nil {
		return a.NewVC(n)
	}
	return vclock.New(n)
}

// Insert creates x's record in shard si, drawn from the record pool on the
// arena path, and publishes it in the index when the store is indexed. x
// must hold no record; the caller holds the shard.
func (s *Store[M]) Insert(si int, x event.Var) *M {
	var m *M
	if s.pool != nil {
		m = s.pool.Get(si)
	} else {
		m = new(M)
	}
	s.presence.Add(x) // before insert: a zero presence read proves absence
	s.Table[si].Vars[x] = m
	s.Index.Publish(x, m)
	return m
}

// Delete removes x's record m from shard si and recycles it. No reference
// to m may survive; the caller holds the shard. Only backends that never
// read Index lock-free may delete (a lock-free reader could still hold the
// record).
func (s *Store[M]) Delete(si int, x event.Var, m *M) {
	delete(s.Table[si].Vars, x)
	s.presence.Remove(x) // after delete: presence covers the metadata's lifetime
	if s.pool != nil {
		s.pool.Put(si, m)
	}
}

// Emit reports a race, counting it against the shard the triggering access
// belongs to (races are only ever emitted from access paths). The reporter
// may therefore be invoked concurrently by accesses in distinct shards.
func (s *Store[M]) Emit(sh *Shard[M], r detector.Race) {
	sh.Stats.Races++
	if s.report != nil {
		s.report(r)
	}
}

// Trim hands free-list slack in the arena and the record pool back to the
// garbage collector; a no-op on the heap path. Sampling backends call it at
// the end of a sampling period.
func (s *Store[M]) Trim() {
	if s.arena != nil {
		s.arena.Trim()
		s.pool.Trim()
	}
}

// Stats returns the operation counters: SyncStats plus every shard's
// access counters. Exclusive access required; the returned pointer is to a
// snapshot that the next Stats call overwrites.
func (s *Store[M]) Stats() *detector.Counters {
	s.snap = s.SyncStats
	for i := range s.Table {
		s.snap.Add(&s.Table[i].Stats)
	}
	return &s.snap
}

// VarsTracked implements detector.VarAccounted: the number of variables
// currently holding a record. Exclusive access required.
func (s *Store[M]) VarsTracked() int {
	n := 0
	for i := range s.Table {
		n += len(s.Table[i].Vars)
	}
	return n
}
