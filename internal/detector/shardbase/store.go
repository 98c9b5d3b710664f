package shardbase

import (
	"sync/atomic"

	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Config is the metadata-store configuration every sharded backend reads.
// The zero value is the default store: 64 shards.
type Config struct {
	// Shards is the number of independent variable-metadata shards
	// (rounded up to a power of two, default 64). Accesses to variables in
	// distinct shards may run concurrently under the detector.Sharded
	// locking contract.
	Shards int
}

// Shard is one slice of a backend's variables together with the
// access-path counters accumulated for it. Vars holds the records of the
// shard's variables at or above the record-table bound (nil until the
// first one); backends reach it only through Store's Insert, Lookup,
// Delete and Range. The trailing pad keeps shards on distinct cache lines
// so parallel accesses do not false-share.
type Shard[M any] struct {
	Vars  map[event.Var]*M
	Stats detector.Counters
	_     [64]byte
}

// probes is the non-generic half of Store: everything the lock-free
// probes read, kept off the generic type so the hot probes compile as
// plain methods.
type probes struct {
	geo Geometry
	// presence counts tracked variables per hash bucket, maintained
	// increment-before-insert and decrement-after-delete, so a zero read
	// proves absence at the instant of the load.
	presence *Presence
	// state publishes the sampling flag (bit 0) and a transition count
	// (upper bits). Always-on backends set it once with SetAlwaysOn.
	state detector.State
	// sync publishes the version epochs behind SyncNoOp; nil unless the
	// backend called EnableSyncEpochs.
	syncEpochs *syncTables
}

const (
	// TableBound bounds the record table: a variable whose identifier
	// lies below it keeps its record in the table, found by one directory
	// load and one slot load and visible to the lock-free fast paths; one
	// at or above it (rarely produced by the front-end's sequential
	// allocator) keeps its record in its shard's map, found by hashing,
	// under the shard lock only (correct, just slower). The table's
	// directory, allocated with the store, holds one pointer per page
	// (8 KiB); a page of 4096 records, 32 KiB, is allocated when a
	// variable in it first gains a record.
	TableBound = 1 << 22
	// pageBits sizes a record-table page: 4096 slots, 32 KiB.
	pageBits = 12
	pageSize = 1 << pageBits
)

// page is one stretch of the record table: the records of identifiers
// [k·pageSize, (k+1)·pageSize) for directory entry k, nil where a
// variable holds none.
type page[M any] [pageSize]atomic.Pointer[M]

// Store is a sharded backend's variable-metadata store, embedded by value
// in the backend's Detector: the stripe geometry, the record table and
// the per-shard overflow maps and counters and the presence filter, built
// from one Config. It defines the detector.Sharded probes, the no-metadata
// dismissal stage, and the accounting methods every sharded backend
// shares; the backend keeps only its record type M, its access analysis,
// and its synchronization wrappers. Call Init before use.
//
// Every record lives in exactly one place. A variable below TableBound
// keeps it in the record table: a directory of page pointers, allocated
// at Init, over pages of pageSize slots that are installed by
// CompareAndSwap on first touch and never copied or freed.
// (A directory installed lazily as well would save a detector that never
// records its 8 KiB, but the extra atomic load pushes Lookup over the
// compiler's inlining budget, which cost the sampled path ~5%.)
// Finding a record there costs two dependent loads and no hashing, and
// because a slot never moves, a slot store from one shard cannot race a
// growth copy made for another, and the lock-free fast paths (Peek) read
// the same slots the locked paths write. A variable at or above the bound
// keeps its record in its shard's map.
type Store[M any] struct {
	probes
	// Table holds the variable shards, indexed by ShardOf.
	Table []Shard[M]
	// dir is the record table's page directory.
	dir []atomic.Pointer[page[M]]
	// SyncStats holds the synchronization-path counters; access counters
	// live per shard.
	SyncStats detector.Counters
	snap      detector.Counters // Stats() aggregation scratch
	report    detector.Reporter
}

// Init builds the store from cfg. report receives the races passed to
// Emit.
func (s *Store[M]) Init(report detector.Reporter, cfg Config) {
	s.geo = NewGeometry(cfg.Shards)
	s.presence = NewPresence()
	s.report = report
	s.Table = make([]Shard[M], s.geo.Shards())
	s.dir = make([]atomic.Pointer[page[M]], TableBound>>pageBits)
}

// Shards returns the number of variable-metadata shards; the caller's
// striped locks must cover indices [0, Shards()).
func (p *probes) Shards() int { return p.geo.Shards() }

// ShardOf maps a variable to its metadata shard (Fibonacci hashing on the
// identifier's high output bits).
func (p *probes) ShardOf(x event.Var) int { return p.geo.ShardOf(x) }

// State returns the atomically published sampling state: bit 0 of its
// word is the sampling flag and the upper bits count transitions, so two
// equal loads bracketing another atomic load prove the sampling flag held
// throughout. Always-on backends publish the constant 1.
func (p *probes) State() *detector.State { return &p.state }

// MetaPossible reports whether variable x might currently hold metadata.
// It is safe to call without any lock: a false result proves x held no
// metadata at the instant of the internal load; a true result may be a
// hash collision and only obliges the caller to take the slow path.
func (p *probes) MetaPossible(x event.Var) bool { return p.presence.Possible(x) }

// NoMetadata is the no-metadata dismissal stage (detector.StageNoMetadata)
// of the sampling backends, the paper's inline fast path served
// lock-free. If the state word reads "not sampling" both before and after
// the presence filter reads "no metadata", then at the instant of the
// presence load no sampling period was in progress and x held no
// metadata, so the locked path would have done nothing for this access.
// An always-on backend's word keeps the sampling flag set, so it never
// lists this stage.
func (p *probes) NoMetadata(_ vclock.Thread, x event.Var, _ event.Site, _ uint32, _ bool) bool {
	st := p.state.Word()
	return st&1 == 0 && !p.MetaPossible(x) && p.state.Word() == st
}

// slot returns the table slot of identifier x, which must lie below
// TableBound, installing its page on first touch. Two shards racing to
// install the same page agree on the winner of the CompareAndSwap.
func (s *Store[M]) slot(x uint32) *atomic.Pointer[M] {
	d := &s.dir[x>>pageBits]
	pg := d.Load()
	if pg == nil {
		if fresh := new(page[M]); d.CompareAndSwap(nil, fresh) {
			pg = fresh
		} else {
			pg = d.Load()
		}
	}
	return &pg[x&(pageSize-1)]
}

// Peek returns x's record when x lies below TableBound and holds one, nil
// otherwise. It touches no map, so it is safe to call lock-free at any
// time: this is what the lock-free fast paths read.
func (s *Store[M]) Peek(x event.Var) *M {
	if uint32(x) >= TableBound {
		return nil
	}
	pg := s.dir[uint32(x)>>pageBits].Load()
	if pg == nil {
		return nil
	}
	return pg[uint32(x)&(pageSize-1)].Load()
}

// Lookup returns x's record in shard si, or nil when x holds none. The
// caller holds the shard.
func (s *Store[M]) Lookup(si int, x event.Var) *M {
	if uint32(x) < TableBound {
		return s.Peek(x)
	}
	return s.Table[si].Vars[x]
}

// Insert creates x's record in shard si and stores it in the table below
// TableBound or in the shard's map at or above it. x must hold no record;
// the caller holds the shard.
func (s *Store[M]) Insert(si int, x event.Var) *M {
	m := new(M)
	s.presence.Add(x) // before insert: a zero presence read proves absence
	if uint32(x) < TableBound {
		s.slot(uint32(x)).Store(m)
		return m
	}
	sh := &s.Table[si]
	if sh.Vars == nil {
		sh.Vars = make(map[event.Var]*M)
	}
	sh.Vars[x] = m
	return m
}

// Delete removes x's record from shard si; the caller holds the shard.
// Only backends that never Peek lock-free may delete (a lock-free reader
// could still hold the record).
func (s *Store[M]) Delete(si int, x event.Var) {
	if uint32(x) < TableBound {
		s.slot(uint32(x)).Store(nil)
	} else {
		delete(s.Table[si].Vars, x)
	}
	s.presence.Remove(x) // after delete: presence covers the metadata's lifetime
}

// Range calls f for every variable holding a record, the table's in
// identifier order and then the shard maps', until f returns false.
// Exclusive access required.
func (s *Store[M]) Range(f func(event.Var, *M) bool) {
	for k := range s.dir {
		pg := s.dir[k].Load()
		if pg == nil {
			continue
		}
		for j := range pg {
			if m := pg[j].Load(); m != nil && !f(event.Var(k<<pageBits|j), m) {
				return
			}
		}
	}
	for i := range s.Table {
		for x, m := range s.Table[i].Vars {
			if !f(x, m) {
				return
			}
		}
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

// Stats implements detector.Accounted: SyncStats plus every shard's
// access counters. Exclusive access required; the returned pointer is to a
// snapshot that the next Stats call overwrites.
func (s *Store[M]) Stats() *detector.Counters {
	s.snap = s.SyncStats
	for i := range s.Table {
		s.snap.Add(&s.Table[i].Stats)
	}
	return &s.snap
}

// VarsTracked implements detector.Accounted: the number of variables
// currently holding a record. Exclusive access required.
func (s *Store[M]) VarsTracked() int {
	n := 0
	s.Range(func(event.Var, *M) bool {
		n++
		return true
	})
	return n
}
