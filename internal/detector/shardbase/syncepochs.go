package shardbase

import (
	"sync/atomic"

	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// syncEpochCap bounds the identifiers a VETable covers, as TableBound
// bounds the record table. Identifiers at or above it are never published,
// so SyncNoOp reports them unknown and the caller takes its locked path.
const syncEpochCap = TableBound

// veMin is a VETable's initial size. Programs hold far fewer locks and
// volatiles than variables, so the tables start smaller than the index.
const veMin = 64

// VETable is a grow-only table of packed version epochs indexed by a lock,
// volatile, or thread identifier, readable with atomic loads. Set and its
// growth require the owner's exclusive access; growth copies and then
// republishes, so a reader still on the old slice reads a value that was
// current at some instant after it loaded the slice.
//
// Every identifier below syncEpochCap reads ⊥ve until a non-⊥ value is
// set for it, whether it lies inside the table or past its end, and even
// before the table is first allocated. That is sound because Set grows
// the table to cover i before it stores a non-⊥ value for i, and tables
// only grow: a reader that loads a table too short for i (or none) made
// its load before the table covering i was published, so before any
// non-⊥ store to i, and ⊥ve was i's value at that instant. A lock no
// thread has released yet therefore reads ⊥ve, and Rule 4 dismisses an
// acquire of it. Only identifiers at or above the cap read unknown.
type VETable struct {
	p atomic.Pointer[[]atomic.Uint64]
}

// Set publishes ve for identifier i. Requires exclusive access, unless the
// table already covers i (Ensure), when it is one atomic store. Storing ⊥ve
// past the table's end is skipped: the slot would read ⊥ve once grown.
func (vt *VETable) Set(i uint32, ve vclock.VersionEpoch) {
	tab := vt.p.Load()
	if tab == nil || i >= uint32(len(*tab)) {
		if ve == vclock.VEBottom || i >= syncEpochCap {
			return
		}
		vt.Ensure(int(i) + 1)
		tab = vt.p.Load()
	}
	(*tab)[i].Store(uint64(ve))
}

// Ensure grows the table to cover identifiers below n (at most the cap).
// Requires exclusive access.
func (vt *VETable) Ensure(n int) {
	n = min(n, syncEpochCap)
	tab := vt.p.Load()
	cur := 0
	if tab != nil {
		cur = len(*tab)
	}
	if cur >= n {
		return
	}
	size := max(cur, veMin)
	for size < n {
		size *= 2
	}
	grown := make([]atomic.Uint64, size)
	for j := 0; j < cur; j++ {
		grown[j].Store((*tab)[j].Load())
	}
	vt.p.Store(&grown)
}

// Get returns identifier i's published version epoch: ⊥ve when i lies
// below the cap but past the table (see VETable), false when i lies at or
// above the cap (unknown: never published). Safe to call lock-free at any
// time.
func (vt *VETable) Get(i uint32) (vclock.VersionEpoch, bool) {
	if i >= syncEpochCap {
		return 0, false
	}
	tab := vt.p.Load()
	if tab == nil || i >= uint32(len(*tab)) {
		return vclock.VEBottom, true
	}
	return vclock.VersionEpoch((*tab)[i].Load()), true
}

// syncTables publishes the version epochs behind the lock-free sync
// dismissal: Ver(o) of every lock and volatile, and each thread's own
// version epoch Ver(t) = ver_t(t)@t. A backend that enables it must
// publish at every assignment of an object's version epoch and at every
// change of a thread's own version, under its exclusive access or, for a
// thread's own version, into a slot ReserveOwnVersions covers.
type syncTables struct {
	locks, vols, own VETable
}

// EnableSyncEpochs turns on version-epoch publication; until it is called
// SyncNoOp reports false and the Publish methods do nothing. Call once,
// before the backend is shared.
func (p *probes) EnableSyncEpochs() { p.syncEpochs = &syncTables{} }

// PublishLockEpoch publishes lock m's version epoch. Requires exclusive
// access.
func (p *probes) PublishLockEpoch(m event.Lock, ve vclock.VersionEpoch) {
	if p.syncEpochs != nil {
		p.syncEpochs.locks.Set(uint32(m), ve)
	}
}

// PublishVolEpoch publishes volatile vx's version epoch. Requires
// exclusive access.
func (p *probes) PublishVolEpoch(vx event.Volatile, ve vclock.VersionEpoch) {
	if p.syncEpochs != nil {
		p.syncEpochs.vols.Set(uint32(vx), ve)
	}
}

// ReserveOwnVersions grows the own-version table to cover threads below n,
// so that a thread first seen by a shared-mode access publishes its version
// with one atomic store. Requires exclusive access.
func (p *probes) ReserveOwnVersions(n int) {
	if p.syncEpochs != nil {
		p.syncEpochs.own.Ensure(n)
	}
}

// PublishOwnVersion publishes Ver(t), thread t's own version epoch.
// Requires exclusive access, or a reservation covering t (see
// ReserveOwnVersions) and the thread's own serialization.
func (p *probes) PublishOwnVersion(t vclock.Thread, ve vclock.VersionEpoch) {
	if p.syncEpochs != nil {
		p.syncEpochs.own.Set(uint32(t), ve)
	}
}

// SyncNoOp reports whether the synchronization event e (Acquire, Release,
// VolRead or VolWrite) is provably a no-op of PACER's analysis, from the
// published version epochs alone and using only the calling thread's own
// component; it may be called lock-free at any time by e's thread. True
// means that at some instant inside the call a serialized detector would
// have changed nothing but its counters: SyncOps, plus FastJoins for a join
// and ShallowCopies for a release (both for a volatile write). False
// proves nothing. Both rules require t to have published its own version:
//
//   - Acquire and VolRead (Table 7 Rule 4): the object's version epoch is
//     ⊥ve, or names t at a version no newer than Ver(t). t has then already
//     received the snapshot, and the join is a no-op in either period.
//   - Release and VolWrite, outside sampling only: the object's version
//     epoch equals Ver(t). The shallow copy (Algorithm 9) then stores the
//     snapshot the object already holds and inc is a no-op; for a volatile,
//     Rule 4 subsumption makes the join the same copy. The state word must
//     read "not sampling" and stay unchanged across the loads, and Ver(t)
//     is loaded inside that bracket: a sampling period that began and ended
//     between the loads would have advanced Ver(t).
func (p *probes) SyncNoOp(e event.Event) bool {
	s := p.syncEpochs
	if s == nil {
		return false
	}
	switch e.Kind {
	case event.Acquire:
		return s.joinNoOp(&s.locks, e)
	case event.VolRead:
		return s.joinNoOp(&s.vols, e)
	case event.Release:
		return s.copyNoOp(&p.state, &s.locks, e)
	case event.VolWrite:
		return s.copyNoOp(&p.state, &s.vols, e)
	}
	return false
}

func (s *syncTables) joinNoOp(objs *VETable, e event.Event) bool {
	own, ok := s.own.Get(uint32(e.Thread))
	if !ok || own == vclock.VEBottom {
		return false
	}
	ve, ok := objs.Get(e.Target)
	return ok && (ve == vclock.VEBottom ||
		!ve.IsTop() && ve.Thread() == e.Thread && ve.Version() <= own.Version())
}

func (s *syncTables) copyNoOp(state *detector.State, objs *VETable, e event.Event) bool {
	st := state.Word()
	if st&1 != 0 {
		return false
	}
	own, ok := s.own.Get(uint32(e.Thread))
	if !ok || own == vclock.VEBottom {
		return false
	}
	ve, ok := objs.Get(e.Target)
	return ok && ve == own && state.Word() == st
}
