// Package fasttrack implements the FASTTRACK race detector of Flanagan and
// Freund as presented in Section 2.2 of the PACER paper (Algorithms 7-8).
// It replaces the write vector clock with an epoch and uses an adaptive
// read map, reducing nearly all read/write analysis from O(n) to O(1).
//
// Following the paper, this implementation clears the read map at writes
// ("New: clear read map" in Algorithm 8) so that it corresponds directly
// with PACER; the original FastTrack behaviour is available via Options for
// the ablation benchmarks.
//
// The detector implements the detector.Sharded contract (stripe geometry,
// presence filter, state word, and thread publication all mounted from
// internal/detector/shardbase), so the concurrent public front-end drives
// it with the same striped reader-writer discipline as the PACER core:
// accesses to variables in distinct shards proceed in parallel while
// synchronization operations retain exclusive access. Unlike PACER,
// FASTTRACK has no non-sampling periods — every access creates or updates
// metadata — so the published sampling flag is constantly set and the
// front-end's lock-free no-metadata dismissal never fires (dismissing a
// first access would lose the read-map entry or write epoch it must
// install). What an always-on detector can dismiss without a lock is its
// own same-epoch no-op, the dominant case FastTrack was built around; the
// detector.EpochFast capability publishes per-variable epoch mirrors so the
// front-end serves exactly that case with a handful of atomic loads.
//
// What EpochFast cannot dismiss — chiefly the shared-read case, where a
// multi-entry read map publishes no mirror — is served by the SmartTrack-
// style owned-access path (detector.OwnedAccess): a per-variable ownership
// word claimed by CompareAndSwap lets one access run the full analysis and
// update lock-free, falling back to the locked slow path on contention or
// whenever a race would have to be reported.
package fasttrack

import (
	"sync"
	"sync/atomic"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Options tune the analysis for ablation studies; the zero value is the
// paper's algorithm with every fast path enabled. The metadata store is
// configured by shardbase.Config.
type Options struct {
	// KeepReadEpochOnWrite restores the original FastTrack behaviour of
	// leaving a single-entry read map in place at a write (the paper's
	// modified algorithm clears it). It also disables the owned-access
	// fast path, whose repeat-read dismissal relies on writes clearing the
	// read map.
	KeepReadEpochOnWrite bool
	// DisableEpochFastPath forces the full analysis even when the access
	// matches the variable's current epoch, for the ablation benchmark
	// measuring the value of FastTrack's same-epoch check. It also
	// disables the owned-access fast path, which extends the same check.
	DisableEpochFastPath bool
}

type varMeta struct {
	w     vclock.Epoch
	wSite event.Site
	r     vclock.ReadMap
	// own is the per-variable ownership word of the owned-access fast
	// path. The lock-free side claims it with a single CompareAndSwap
	// (TryLock) and falls back to the locked path when the claim fails;
	// the locked paths and exclusive accessors claim it blocking, so any
	// holder has exclusive access to w/wSite/r without the shard lock.
	own sync.Mutex
	// aw and ar are lock-free mirrors of the write epoch and the
	// single-entry read epoch (packed, zero meaning "no dismissal
	// possible"), read by TrySameEpoch without any lock. The paths that
	// mutate this record maintain them conservatively: cleared before the
	// underlying state mutates, republished only after it settles, so a
	// nonzero value always equals the settled state of the last mutating
	// operation.
	aw, ar atomic.Uint64
}

// publishMirrors republishes both epoch mirrors from the record's settled
// state. Called with the record owned (shard lock or ownership word),
// after every mutation.
func (m *varMeta) publishMirrors() {
	m.aw.Store(uint64(m.w))
	if m.r.Size() == 1 {
		m.ar.Store(uint64(m.r.Single().Epoch()))
	} else {
		m.ar.Store(0)
	}
}

// Detector is the FASTTRACK analysis. It is not safe for unrestricted
// concurrent use, but it admits the sharded reader-writer discipline of
// detector.Sharded, which the public pacer package exploits:
//
//   - Synchronization operations (Acquire, Release, Fork, Join, VolRead,
//     VolWrite), Stats, VarsTracked, and MetadataWords require exclusive
//     access (no other call in flight, owned accesses excepted — see
//     below).
//   - Read and Write may run concurrently with each other provided (a)
//     calls whose variables share a shard (ShardOf) are serialized by the
//     caller, (b) no exclusive-class call is in flight, (c) every thread
//     identifier was announced via EnsureThreadSlots (or a prior exclusive
//     call) before its first shared-mode access, and (d) a single thread's
//     operations are never issued concurrently with each other.
//
// Under that contract accesses only read their own thread's clock (stable
// between synchronization operations) and mutate per-shard state, so any
// interleaving is equivalent to some serialized execution of the same
// operations.
//
// The State word and MetaPossible may be read, and TrySameEpoch and
// TryOwnedAccess called, lock-free at any time (TryOwnedAccess still under
// rule (d)). Because
// FASTTRACK analyzes every access, the state word's sampling flag is
// constantly set — callers implementing the PACER-shaped "skip when not
// sampling" dismissal therefore always fall through, which is the only
// sound behavior for an always-on detector whose first accesses install
// metadata. TrySameEpoch is the dismissal that is sound: it proves from the
// published epoch mirrors that the access repeats the variable's current
// epoch, making the analysis a guaranteed no-op. TryOwnedAccess goes one
// step further: it claims the variable's ownership word and, when the
// analysis reports no race, performs the full metadata update in place —
// every path that mutates or inspects a variable record (locked accesses,
// MetadataWords) claims the same word, so ownership confers exclusive
// access to the record without the shard lock.
//
// The embedded store's state word is the constant 1 — flag set, zero
// transitions — trivially satisfying the two-equal-loads protocol of the
// Sharded contract, and its presence filter never decrements: FASTTRACK
// never discards metadata. Its direct index (variable identifier →
// record) is what the lock-free fast paths read.
type Detector struct {
	shardbase.Store[varMeta]
	sync *detector.BaseSync
	// tpub publishes each thread's own epoch c@t (for the same-epoch
	// probe) and clock pointer (for the owned-access analysis). Grown only
	// by EnsureThreadSlots (exclusive access); slots are written by the
	// owning thread's operations — which the caller serializes — and read
	// lock-free only by that thread's own probes.
	tpub shardbase.ThreadPub
	opts Options
	// ownedOK caches the option combination under which the owned-access
	// fast path is sound and enabled.
	ownedOK bool
}

var (
	_ detector.Detector        = (*Detector)(nil)
	_ detector.Counted         = (*Detector)(nil)
	_ detector.MemoryAccounted = (*Detector)(nil)
	_ detector.VarAccounted    = (*Detector)(nil)
	_ detector.Sharded         = (*Detector)(nil)
	_ detector.EpochFast       = (*Detector)(nil)
	_ detector.OwnedAccess     = (*Detector)(nil)
	_ detector.ArenaAccounted  = (*Detector)(nil)
)

// New returns a FASTTRACK detector with the default store and options.
func New(report detector.Reporter) *Detector {
	return NewWithOptions(report, shardbase.Config{}, Options{})
}

// NewWithOptions returns a FASTTRACK detector with an explicit store
// configuration and analysis options.
func NewWithOptions(report detector.Reporter, cfg shardbase.Config, opts Options) *Detector {
	d := &Detector{
		opts:    opts,
		ownedOK: !opts.DisableEpochFastPath && !opts.KeepReadEpochOnWrite,
	}
	// FASTTRACK never deletes a record, so none is recycled: no reset.
	d.Init(report, cfg, true, nil)
	d.sync = detector.NewBaseSync(&d.SyncStats)
	d.sync.SetAllocator(d.Clocks())
	// Always-on: the sampling flag is set for the detector's whole life.
	d.State().SetAlwaysOn()
	return d
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "fasttrack" }

// EnsureThreadSlots pre-grows the thread table to hold identifiers below
// n, so that shared-mode Read/Write calls never resize it. It also grows
// the published thread table the fast paths read (a thread with no slot
// simply never fast-paths). Requires exclusive access.
func (d *Detector) EnsureThreadSlots(n int) {
	d.sync.EnsureThreadSlots(n)
	d.tpub.Ensure(n)
}

// publishEpoch republishes thread t's own packed epoch c@t and clock
// pointer after an operation that may have advanced the epoch. The store
// is skipped when the published epoch is already current (shardbase does
// the compare), so republication is batched at the operations that
// actually advance t's clock — an acquire-heavy mix performs no stores.
// Entries are only ever written by operations of thread t itself (or
// operations ordered before t's first use, like the fork that created t),
// which the caller serializes.
func (d *Detector) publishEpoch(t vclock.Thread) {
	d.tpub.Publish(t, d.sync.ThreadClock(t))
}

// seedEpoch publishes thread t's epoch only if it has never been
// published — the SmartTrack-style trim of the access slow path. A
// thread's own epoch advances only at the synchronization operations that
// increment its clock (release, the forking side of fork, the joined side
// of join, volatile write), and every one of those republishes; between
// them the published epoch stays current by itself, so per-access
// republication reduces to one atomic load and a never-taken branch after
// the first access.
func (d *Detector) seedEpoch(t vclock.Thread) {
	if d.tpub.Epoch(t) == 0 {
		d.publishEpoch(t)
	}
}

// TrySameEpoch implements detector.EpochFast: a lock-free proof that the
// access repeats the variable's current epoch and the analysis would be a
// no-op (Algorithm 7/8, line 1 — the overwhelmingly common case). The
// thread's published epoch is stable during the call (only t's own
// operations advance it); a nonzero variable mirror equals the settled
// state of the last mutating operation on the variable, so a match
// linearizes the access right after that operation, where the serialized
// detector dismisses it without touching metadata.
func (d *Detector) TrySameEpoch(t vclock.Thread, x event.Var, write bool) bool {
	if d.opts.DisableEpochFastPath {
		return false
	}
	e := d.tpub.Epoch(t)
	if e == 0 {
		return false
	}
	m := d.Index.Lookup(x)
	if m == nil {
		return false
	}
	if write {
		return m.aw.Load() == e
	}
	return m.ar.Load() == e
}

// TryOwnedAccess implements detector.OwnedAccess, the SmartTrack-style
// exclusive-ownership fast path for what the epoch mirrors cannot dismiss
// — chiefly the shared-read case, where a multi-entry read map publishes
// no mirror. The variable's ownership word is claimed with one
// CompareAndSwap; on success the full FastTrack analysis runs against the
// thread's published clock (stable during the call: only t's own
// serialized operations mutate it), and when no race would be reported the
// metadata update is performed in place under the same mirror discipline
// as the locked path. Any potential race, a failed claim, or missing
// publication returns false with the record untouched — the locked path
// then redoes the analysis from the same settled state and reports through
// its usual channel.
func (d *Detector) TryOwnedAccess(t vclock.Thread, x event.Var, site event.Site, write bool) bool {
	if !d.ownedOK {
		return false
	}
	if d.tpub.Epoch(t) == 0 {
		return false
	}
	m := d.Index.Lookup(x)
	if m == nil {
		return false
	}
	ct := d.tpub.Clock(t)
	if ct == nil {
		return false
	}
	if !m.own.TryLock() {
		return false // contention: fall back to the locked path
	}
	var handled bool
	if write {
		handled = d.ownedWrite(m, t, ct, site)
	} else {
		handled = d.ownedRead(m, t, ct, site)
	}
	m.own.Unlock()
	return handled
}

// ownedRead is the owned-access read analysis. Caller holds m.own.
func (d *Detector) ownedRead(m *varMeta, t vclock.Thread, ct *vclock.VC, site event.Site) bool {
	c := ct.Get(t)
	// Same epoch, single entry: R_x = epoch(t) → no action, mirroring the
	// locked path's dismissal exactly (a multi-entry repeat read falls
	// through to the update so its recorded site is refreshed, like the
	// locked path and the PACER core).
	if m.r.Size() == 1 {
		if e := m.r.Single(); e.T == t && e.C == c {
			return true
		}
	}
	// check W_x ⊑ C_t; a racing write is reported by the locked path.
	if !m.w.Leq(ct) {
		return false
	}
	// The read map is about to change: close the lock-free read dismissal
	// until the new state is settled and republished.
	m.ar.Store(0)
	if m.r.Size() <= 1 && m.r.Leq(ct) {
		m.r.SetEpoch(vclock.ReadEntry{T: t, C: c, Site: uint32(site)})
	} else {
		m.r.Set(t, c, uint32(site))
	}
	m.publishMirrors()
	return true
}

// ownedWrite is the owned-access write analysis. Caller holds m.own.
func (d *Detector) ownedWrite(m *varMeta, t vclock.Thread, ct *vclock.VC, site event.Site) bool {
	c := ct.Get(t)
	// Same epoch: W_x = epoch(t) → no action.
	if !m.w.IsZero() && m.w.Thread() == t && m.w.Clock() == c {
		return true
	}
	// Check W_x ⊑ C_t and R_x ⊑ C_t; any racer is reported by the locked
	// path, which redoes the analysis from this same settled state.
	if !m.w.Leq(ct) || !m.r.Leq(ct) {
		return false
	}
	m.aw.Store(0)
	m.ar.Store(0)
	m.r.Clear() // ownedOK excludes KeepReadEpochOnWrite
	m.w = vclock.MakeEpoch(t, c)
	m.wSite = site
	m.publishMirrors()
	return true
}

// varMetaFor returns x's metadata record in shard si, creating it on first
// access (FASTTRACK tracks every variable it ever sees).
func (d *Detector) varMetaFor(si int, x event.Var) *varMeta {
	if m, ok := d.Table[si].Vars[x]; ok {
		return m
	}
	return d.Insert(si, x) // mirrors are still zero: not yet dismissable
}

// Read implements Algorithm 7.
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	sh.Stats.ReadSlow[detector.Sampling]++
	ct := d.sync.ThreadClock(t)
	d.seedEpoch(t)
	m := d.varMetaFor(si, x)
	m.own.Lock()
	defer m.own.Unlock()

	// Same epoch: R_x = epoch(t) → no action (mirrors already settled). The
	// dismissal is single-entry only: a repeat read while the map is shared
	// still runs the update below so the entry's recorded site is refreshed,
	// exactly like the PACER core's sampling path (the equivalence suite
	// pins the reported sites).
	if !d.opts.DisableEpochFastPath && m.r.Size() == 1 {
		if e := m.r.Single(); e.T == t && e.C == ct.Get(t) {
			return
		}
	}
	// The read map is about to change: close the lock-free read dismissal
	// until the new state is settled and republished.
	m.ar.Store(0)
	// check W_x ⊑ C_t.
	if !m.w.Leq(ct) {
		d.Emit(sh, detector.Race{
			Var: x, Kind: detector.WriteRead,
			FirstThread: m.w.Thread(), SecondThread: t,
			FirstSite: m.wSite, SecondSite: site,
		})
	}
	// Update the read map: collapse to an epoch when reads so far are
	// totally ordered before this one; otherwise record a concurrent read.
	if m.r.Size() <= 1 && m.r.Leq(ct) {
		m.r.SetEpoch(vclock.ReadEntry{T: t, C: ct.Get(t), Site: uint32(site)})
	} else {
		m.r.Set(t, ct.Get(t), uint32(site))
	}
	m.publishMirrors()
}

// Write implements Algorithm 8 (with the paper's read-map clearing).
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	sh.Stats.WriteSlow[detector.Sampling]++
	ct := d.sync.ThreadClock(t)
	d.seedEpoch(t)
	m := d.varMetaFor(si, x)
	m.own.Lock()
	defer m.own.Unlock()

	// Same epoch: W_x = epoch(t) → no action (mirrors already settled).
	if !d.opts.DisableEpochFastPath && !m.w.IsZero() &&
		m.w.Thread() == t && m.w.Clock() == ct.Get(t) {
		return
	}
	// Both the write epoch and the read map are about to change: close the
	// lock-free dismissals until the new state is settled and republished.
	m.aw.Store(0)
	m.ar.Store(0)
	// check W_x ⊑ C_t.
	if !m.w.Leq(ct) {
		d.Emit(sh, detector.Race{
			Var: x, Kind: detector.WriteWrite,
			FirstThread: m.w.Thread(), SecondThread: t,
			FirstSite: m.wSite, SecondSite: site,
		})
	}
	// check R_x ⊑ C_t, reporting one race per concurrent prior read.
	m.r.Racing(ct, func(e vclock.ReadEntry) {
		d.Emit(sh, detector.Race{
			Var: x, Kind: detector.ReadWrite,
			FirstThread: e.T, SecondThread: t,
			FirstSite: event.Site(e.Site), SecondSite: site,
		})
	})
	if d.opts.KeepReadEpochOnWrite && m.r.Size() <= 1 {
		// Original FastTrack: a read epoch survives the write.
	} else {
		m.r.Clear()
	}
	m.w = vclock.MakeEpoch(t, ct.Get(t))
	m.wSite = site
	m.publishMirrors()
}

// The synchronization wrappers republish a thread's epoch exactly where
// its own clock component advances: a release, the forking side of a
// fork, the joined side of a join, a volatile write. A stale published
// epoch could let TrySameEpoch dismiss an access from the new epoch
// against metadata recorded in the old one, so those points must
// republish. Everything else is a join *into* C_t — acquire, volatile
// read, the receiving sides of fork and join — where the thread's own
// component cannot advance (a component originates only from its own
// thread's increments, so no other clock ever carries a larger one):
// those republish nothing, no matter how much content the join absorbed.
// BaseSync reports whether each such join changed the clock at all — with
// tree clocks, computed from the pruned changed-entry walk rather than a
// full-width comparison — which the sampling backends use to skip their
// own post-acquire work; for FASTTRACK the publication skip is
// unconditional.

// Acquire implements Algorithm 1.
func (d *Detector) Acquire(t vclock.Thread, m event.Lock) {
	d.sync.Acquire(t, m)
}

// Release implements Algorithm 2.
func (d *Detector) Release(t vclock.Thread, m event.Lock) {
	d.sync.Release(t, m)
	d.publishEpoch(t)
}

// Fork implements Algorithm 3. Only the parent's component advances; the
// child seeds its publication at its first analyzed access.
func (d *Detector) Fork(t, u vclock.Thread) {
	d.sync.Fork(t, u)
	d.publishEpoch(t)
}

// Join implements Algorithm 4. Only the joined thread's component
// advances; the receiving thread's published epoch is already current.
func (d *Detector) Join(t, u vclock.Thread) {
	d.sync.Join(t, u)
	d.publishEpoch(u)
}

// VolRead implements Algorithm 14.
func (d *Detector) VolRead(t vclock.Thread, vx event.Volatile) {
	d.sync.VolRead(t, vx)
}

// VolWrite implements Algorithm 15.
func (d *Detector) VolWrite(t vclock.Thread, vx event.Volatile) {
	d.sync.VolWrite(t, vx)
	d.publishEpoch(t)
}

// MetadataWords implements detector.MemoryAccounted. Each record is
// briefly claimed via its ownership word, so a concurrent owned access
// (which takes no other lock) cannot race the read-map inspection.
func (d *Detector) MetadataWords() int {
	w := d.sync.MetadataWords()
	for i := range d.Table {
		for _, m := range d.Table[i].Vars {
			// Write epoch + site, the two published epoch mirrors, the
			// ownership word, and the read map.
			m.own.Lock()
			w += 5 + m.r.MemoryWords()
			m.own.Unlock()
		}
	}
	return w
}
