// Package core implements PACER, the paper's primary contribution: a
// sampling race detector built on FASTTRACK that guarantees a detection
// rate for every race equal to the global sampling rate, with time and
// space overheads proportional to that rate (Section 3).
//
// During sampling periods PACER performs exactly the FASTTRACK analysis.
// During non-sampling periods it:
//
//   - stops incrementing thread clocks ("timeless" periods, Section 3.2),
//   - detects redundant synchronization via vector-clock versions and
//     version epochs, turning almost all O(n) joins into O(1) fast joins
//     (Algorithm 11) and all O(n) copies into O(1) shallow copies with
//     copy-on-write sharing (Algorithms 9-10),
//   - records no read/write metadata and discards metadata that can no
//     longer be the first access of a sampled shortest race (Algorithms
//     12-13), so variables touched only outside sampling periods cost
//     nothing.
//
// The state-transition rules follow the formal semantics of Appendix A
// (Tables 4-7), which take precedence over the prose algorithms where the
// two differ.
package core

import (
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Options tune PACER's analysis for the ablation benchmarks; the zero value
// is the full algorithm as published. The metadata store (sharding, arena,
// clock representation) is configured by shardbase.Config.
type Options struct {
	// DisableVersions turns off the version-epoch fast join (Algorithm 11),
	// forcing an O(n) comparison or join at every synchronization
	// communication. Race reports are unaffected (Lemma 7 guarantees the
	// fast join skips only no-op joins).
	DisableVersions bool
	// DisableSharing turns off copy-on-write vector clock sharing,
	// forcing deep copies at every release (Algorithm 9).
	DisableSharing bool
	// DisableDiscard keeps variable metadata alive in non-sampling periods
	// instead of discarding it. Reports remain true races, but the
	// detector loses its space proportionality and may report additional
	// non-shortest races.
	DisableDiscard bool
}

// threadMeta is the per-thread analysis state: the thread's vector clock
// (possibly shared with synchronization objects after a shallow copy) and
// its version vector (Appendix A.2).
type threadMeta struct {
	clock *vclock.VC
	ver   *vclock.VC
}

// syncMeta is the metadata for a lock or volatile: its clock (possibly
// shared with a thread) and its version epoch. alloc is the object's home
// slab allocator (nil on the heap path): a deep copy that must replace a
// shared clock draws the replacement from it.
type syncMeta struct {
	clock  *vclock.VC
	vepoch vclock.VersionEpoch
	alloc  vclock.Allocator
}

// varMeta is the read/write metadata for one data variable. An entry
// exists in the variable table only while it carries information: the
// table-miss is the implementation's "o.metadata == null" fast path
// (Section 4).
type varMeta struct {
	w     vclock.Epoch
	wSite event.Site
	r     vclock.ReadMap
}

// Detector is the PACER analysis. It is not safe for unrestricted
// concurrent use, but it admits a sharded reader-writer discipline that
// the public pacer package exploits:
//
//   - Synchronization operations (Acquire, Release, Fork, Join, VolRead,
//     VolWrite), sampling transitions (SampleBegin, SampleEnd), thread
//     lifecycle calls, Stats, VarsTracked, and MetadataWords require
//     exclusive access (no other call in flight).
//   - Read and Write may run concurrently with each other provided (a)
//     calls whose variables share a shard (ShardOf) are serialized by the
//     caller, (b) no exclusive-class call is in flight, and (c) every
//     thread identifier was announced via EnsureThreadSlots (or a prior
//     exclusive call) before its first shared-mode access, and a single
//     thread's operations are never issued concurrently with each other.
//
// Under that contract accesses only read thread clocks (stable between
// synchronization operations) and mutate per-shard state, so any
// interleaving is equivalent to some serialized execution of the same
// operations.
//
// The State word and MetaPossible may be read lock-free at any time; they
// are the probes behind the public front-end's non-sampling fast path.
// The embedded store publishes the sampling flag in its state word, so a
// lock-free reader can both test sampling and detect that no transition
// intervened between two loads. SyncNoOp may likewise be called lock-free
// by the event's own thread; it reads the version epochs the detector
// publishes at every assignment of a lock's or volatile's version epoch
// and at every change of a thread's own version (creation, SampleBegin,
// inc, a Rule 6 join, reuse). A thread first seen by a shared-mode access
// publishes with one atomic store into the slot EnsureThreadSlots
// reserved. Under an ablation (Options) nothing is published and SyncNoOp
// reports false.
//
// With tree clocks mounted, thread and synchronization clocks draw from
// the tree-capable allocators; version vectors stay flat (they take
// arbitrary component assignments the index cannot track).
type Detector struct {
	shardbase.Store[varMeta]
	sampling bool
	threads  []*threadMeta
	dead     map[vclock.Thread]bool
	joined   map[vclock.Thread]bool
	locks    map[event.Lock]*syncMeta
	vols     map[event.Volatile]*syncMeta
	opts     Options
}

var (
	_ detector.Detector        = (*Detector)(nil)
	_ detector.Sampler         = (*Detector)(nil)
	_ detector.Counted         = (*Detector)(nil)
	_ detector.MemoryAccounted = (*Detector)(nil)
	_ detector.Sharded         = (*Detector)(nil)
	_ detector.ThreadReuser    = (*Detector)(nil)
	_ detector.VarAccounted    = (*Detector)(nil)
	_ detector.ArenaAccounted  = (*Detector)(nil)
)

// New returns a PACER detector with the default store and options,
// initially in a non-sampling period.
func New(report detector.Reporter) *Detector {
	return NewWithOptions(report, shardbase.Config{}, Options{})
}

// NewWithOptions returns a PACER detector with an explicit store
// configuration and analysis options.
func NewWithOptions(report detector.Reporter, cfg shardbase.Config, opts Options) *Detector {
	d := &Detector{
		dead:  make(map[vclock.Thread]bool),
		locks: make(map[event.Lock]*syncMeta),
		vols:  make(map[event.Volatile]*syncMeta),
		opts:  opts,
	}
	d.Init(report, cfg, false, func(m *varMeta) {
		m.w = 0
		m.wSite = 0
		m.r.Clear() // keeps the read map's spilled-map spare
	})
	if opts == (Options{}) {
		// An ablation changes what a synchronization operation does, so
		// only the full algorithm publishes version epochs for SyncNoOp.
		d.EnableSyncEpochs()
	}
	return d
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "pacer" }

// EnsureThreadSlots pre-grows the thread table to hold identifiers below
// n, so that shared-mode Read/Write calls never need to grow it. Requires
// exclusive access.
func (d *Detector) EnsureThreadSlots(n int) {
	for len(d.threads) < n {
		d.threads = append(d.threads, nil)
	}
	d.ReserveOwnVersions(n)
}

// forEachVar visits every tracked variable's metadata. Exclusive access
// required.
func (d *Detector) forEachVar(f func(event.Var, *varMeta) bool) {
	for i := range d.Table {
		for x, m := range d.Table[i].Vars {
			if !f(x, m) {
				return
			}
		}
	}
}

// Sampling reports whether the detector is inside a sampling period.
func (d *Detector) Sampling() bool { return d.sampling }

func (d *Detector) period() detector.Period { return detector.PeriodOf(d.sampling) }

// SampleBegin enters a sampling period (Table 5 Rule 1): every thread's
// vector clock and version advance, so that accesses in this period are
// distinguishable from the frozen non-sampling past.
func (d *Detector) SampleBegin() {
	if d.sampling {
		return
	}
	d.sampling = true
	d.publishState()
	for t, tm := range d.threads {
		if tm == nil || d.dead[vclock.Thread(t)] {
			// A terminated thread performs no further accesses, so its
			// clock need not advance (a real VM has no thread to touch).
			continue
		}
		d.ownThreadClock(vclock.Thread(t), tm)
		tm.clock.Inc(vclock.Thread(t))
		tm.ver.Inc(vclock.Thread(t))
		d.publishVersion(vclock.Thread(t), tm)
		d.SyncStats.Increments[detector.Sampling]++
	}
}

// ThreadExit marks thread t terminated (detector.ThreadLifecycle).
func (d *Detector) ThreadExit(t vclock.Thread) { d.dead[t] = true }

// SampleEnd leaves the sampling period (Table 5 Rule 2). Logical time
// freezes until the next SampleBegin. This is also the arena's bulk
// reclamation point: send is where PACER's metadata population starts
// shrinking (non-sampled accesses only discard), so free-list slack built
// up during the period is handed back to the GC here.
func (d *Detector) SampleEnd() {
	if !d.sampling {
		return
	}
	d.sampling = false
	d.publishState()
	d.Trim()
}

// publishState mirrors d.sampling into the atomic state word, bumping the
// transition count.
func (d *Detector) publishState() { d.State().Publish(d.sampling) }

// thread returns thread t's metadata, creating it in the initial state of
// Equation 7 (clock and version both incremented once) on first use.
func (d *Detector) thread(t vclock.Thread) *threadMeta {
	for int(t) >= len(d.threads) {
		d.threads = append(d.threads, nil)
	}
	if d.threads[t] == nil {
		clock := shardbase.NewVC(d.ClockAlloc(int(t)), int(t)+1)
		// Declare ownership before the first tick so a tree-capable
		// allocator can root the last-update index at t; a no-op on plain
		// allocators.
		clock.SetOwner(t)
		clock.Set(t, 1)
		ver := shardbase.NewVC(d.VCAlloc(int(t)), int(t)+1)
		ver.Set(t, 1)
		d.threads[t] = &threadMeta{clock: clock, ver: ver}
		d.publishVersion(t, d.threads[t])
	}
	return d.threads[t]
}

func (d *Detector) lock(m event.Lock) *syncMeta {
	s, ok := d.locks[m]
	if !ok {
		a := d.ClockAlloc(int(m))
		s = &syncMeta{clock: shardbase.NewVC(a, 0), vepoch: vclock.VEBottom, alloc: a}
		d.locks[m] = s
	}
	return s
}

func (d *Detector) vol(vx event.Volatile) *syncMeta {
	s, ok := d.vols[vx]
	if !ok {
		a := d.ClockAlloc(int(vx))
		s = &syncMeta{clock: shardbase.NewVC(a, 0), vepoch: vclock.VEBottom, alloc: a}
		d.vols[vx] = s
	}
	return s
}

// vepochOf returns Ver(t) = ver_t(t)@t, thread t's current version epoch.
func (d *Detector) vepochOf(t vclock.Thread, tm *threadMeta) vclock.VersionEpoch {
	return vclock.MakeVersionEpoch(t, tm.ver.Get(t))
}

// publishVersion publishes Ver(t) for the lock-free sync probes
// (SyncNoOp). Call at every change of ver_t(t).
func (d *Detector) publishVersion(t vclock.Thread, tm *threadMeta) {
	d.PublishOwnVersion(t, d.vepochOf(t, tm))
}

// ownThreadClock clones tm's clock if it is shared, so it can be mutated
// (the copy-on-write step of Algorithms 10 and 11). The thread's hold on
// the shared clock moves to the clone; synchronization objects sharing the
// old clock keep it alive until their own next release. Clones are born
// disowned (vclock.Clone), so the thread reclaims its label stream — it is
// the unique continuation of the frozen snapshot, which is exactly the
// case SetOwner's re-own is sound for; sync-side clones of the same
// snapshot stay ownerless.
//
// When the holder count proves every past alias has since been released
// (vclock.Unshare), the mark is cleared instead: the clock is the thread's
// exclusive clock again — owner, index, and label stream intact — and the
// full-width clone would copy a snapshot nothing else reads.
func (d *Detector) ownThreadClock(t vclock.Thread, tm *threadMeta) {
	if tm.clock.Unshare() {
		return
	}
	old := tm.clock
	tm.clock = old.Clone()
	tm.clock.SetOwner(t)
	old.Release()
	d.SyncStats.Clones[d.period()]++
}

// inc is PACER's redefined vector clock increment (Algorithm 10): a no-op
// outside sampling periods; inside them it advances both the clock and the
// thread's version.
func (d *Detector) inc(t vclock.Thread) {
	if !d.sampling {
		return
	}
	tm := d.thread(t)
	d.ownThreadClock(t, tm)
	tm.clock.Inc(t)
	tm.ver.Inc(t)
	d.publishVersion(t, tm)
	d.SyncStats.Increments[detector.Sampling]++
}

// copyToSync is PACER's redefined vector clock copy C_o ← C_t (Algorithm
// 9): a shallow, shared copy outside sampling periods and a deep copy
// inside them. Either way o's version epoch becomes vepoch(t).
func (d *Detector) copyToSync(s *syncMeta, t vclock.Thread) {
	tm := d.thread(t)
	p := d.period()
	if !d.sampling && !d.opts.DisableSharing {
		// Retain before releasing the displaced clock: when s already holds
		// tm's clock, the count must never transiently reach zero.
		tm.clock.SetShared()
		tm.clock.Retain()
		old := s.clock
		s.clock = tm.clock
		old.Release()
		d.SyncStats.ShallowCopies[p]++
	} else {
		// A shared sync clock whose other holders are all gone is reclaimed
		// in place (vclock.Unshare): CopyFrom then rides the monotone join
		// fast path instead of replicating the thread clock full-width into
		// a fresh allocation. The reclaimed snapshot must stop minting its
		// original thread's labels first (Disown — no-op when ownerless).
		if s.clock.Unshare() {
			s.clock.Disown()
		} else {
			old := s.clock
			s.clock = shardbase.NewVC(s.alloc, 0)
			old.Release()
		}
		s.clock.CopyFrom(tm.clock)
		d.SyncStats.DeepCopies[p]++
		d.SyncStats.CopyWork += uint64(tm.clock.Len())
	}
	s.vepoch = d.vepochOf(t, tm)
}

// joinIntoThread is PACER's redefined join C_t ← C_t ⊔ C_o (Algorithm 11;
// Table 7 Rules 4-6), where o is a lock, volatile, or another thread,
// identified by its clock and current version epoch.
func (d *Detector) joinIntoThread(t vclock.Thread, srcClock *vclock.VC, srcVE vclock.VersionEpoch) {
	tm := d.thread(t)
	p := d.period()
	// Rule 4 (same version epoch): Ver(o) ≼ ver_t means t has already
	// received this snapshot; by Lemma 7 the join would be a no-op.
	if !d.opts.DisableVersions && srcVE.Leq(tm.ver) {
		d.SyncStats.FastJoins[p]++
		return
	}
	d.SyncStats.SlowJoins[p]++
	d.SyncStats.JoinWork += uint64(srcClock.Len())
	if srcClock.Leq(tm.clock) {
		// Rule 5 (happens-before): the clock is unchanged; record the
		// received version so future joins from this snapshot are fast.
		d.recordVersion(tm, srcVE)
		return
	}
	// Rule 6 (concurrent): a real join; the clock changes, so t's version
	// advances and the source version is recorded.
	d.ownThreadClock(t, tm)
	tm.clock.JoinFrom(srcClock)
	tm.ver.Inc(t)
	d.recordVersion(tm, srcVE)
	d.publishVersion(t, tm)
}

// recordVersion notes that tm's thread has received version srcVE. The
// update is monotonic: when the version fast path is enabled, Rule 4
// guarantees the stored entry is smaller, but with versions disabled a
// stale epoch could otherwise roll the entry backwards.
func (d *Detector) recordVersion(tm *threadMeta, srcVE vclock.VersionEpoch) {
	if srcVE.IsTop() {
		return
	}
	if u, v := srcVE.Thread(), srcVE.Version(); v > tm.ver.Get(u) {
		tm.ver.Set(u, v)
	}
}

// joinIntoVolatile is PACER's special join C_vx ← C_vx ⊔ C_t at a volatile
// write (Algorithm 16; Table 7 Rules 7-9). When C_vx ⊑ C_t — established
// in O(1) via versions when possible — the join degenerates to a copy,
// which is shallow outside sampling periods. Otherwise the volatile's
// clock becomes a join of several threads' clocks and its version epoch
// becomes ⊤ve.
func (d *Detector) joinIntoVolatile(s *syncMeta, t vclock.Thread) {
	tm := d.thread(t)
	p := d.period()
	subsumes := false
	if !d.opts.DisableVersions && s.vepoch.Leq(tm.ver) {
		subsumes = true
		d.SyncStats.FastJoins[p]++
	} else if s.clock.Leq(tm.clock) {
		subsumes = true
		d.SyncStats.SlowJoins[p]++
		d.SyncStats.JoinWork += uint64(s.clock.Len())
	}
	if subsumes {
		d.copyToSync(s, t)
		return
	}
	d.SyncStats.SlowJoins[p]++
	d.SyncStats.JoinWork += uint64(tm.clock.Len())
	if s.clock.Unshare() {
		s.clock.Disown() // reclaimed snapshot must not mint its sharer's labels
	} else {
		old := s.clock
		s.clock = shardbase.NewVC(s.alloc, 0)
		s.clock.CopyFrom(old)
		old.Release()
		d.SyncStats.Clones[p]++
	}
	s.clock.JoinFrom(tm.clock)
	s.vepoch = vclock.VETop // no longer a snapshot of any single thread
}

// Acquire implements acq(t, m) (Table 6 Rule 1): C_t ← C_t ⊔ L_m.
func (d *Detector) Acquire(t vclock.Thread, m event.Lock) {
	d.SyncStats.SyncOps[d.period()]++
	s := d.lock(m)
	d.joinIntoThread(t, s.clock, s.vepoch)
}

// Release implements rel(t, m) (Table 6 Rule 2): L_m ← copy(C_t); inc(t).
func (d *Detector) Release(t vclock.Thread, m event.Lock) {
	d.SyncStats.SyncOps[d.period()]++
	s := d.lock(m)
	d.copyToSync(s, t)
	d.PublishLockEpoch(m, s.vepoch)
	d.inc(t)
}

// Fork implements fork(t, u) (Table 6 Rule 3): C_u ← C_u ⊔ C_t; inc(t).
func (d *Detector) Fork(t, u vclock.Thread) {
	d.SyncStats.SyncOps[d.period()]++
	tm := d.thread(t)
	d.joinIntoThread(u, tm.clock, d.vepochOf(t, tm))
	d.inc(t)
}

// Join implements join(t, u) (Table 6 Rule 4): C_t ← C_t ⊔ C_u; inc(u).
func (d *Detector) Join(t, u vclock.Thread) {
	d.SyncStats.SyncOps[d.period()]++
	um := d.thread(u)
	d.joinIntoThread(t, um.clock, d.vepochOf(u, um))
	d.inc(u)
	d.markJoined(u)
}

// VolRead implements vol_rd(t, vx) (Table 6 Rule 5): C_t ← C_t ⊔ V_vx.
func (d *Detector) VolRead(t vclock.Thread, vx event.Volatile) {
	d.SyncStats.SyncOps[d.period()]++
	s := d.vol(vx)
	d.joinIntoThread(t, s.clock, s.vepoch)
}

// VolWrite implements vol_wr(t, vx) (Table 6 Rule 6):
// V_vx ← V_vx ⊔ C_t; inc(t).
func (d *Detector) VolWrite(t vclock.Thread, vx event.Volatile) {
	d.SyncStats.SyncOps[d.period()]++
	s := d.vol(vx)
	d.joinIntoVolatile(s, t)
	d.PublishVolEpoch(vx, s.vepoch)
	d.inc(t)
}

// Read implements rd(t, x) (Algorithm 12; Table 4 Rules 1-4).
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	m, exists := sh.Vars[x]
	if !d.sampling && !exists {
		// Inline fast path: no metadata and not sampling → no action.
		sh.Stats.ReadFast[detector.NonSampling]++
		return
	}
	p := d.period()
	sh.Stats.ReadSlow[p]++
	tm := d.thread(t)
	ct := tm.clock

	if exists {
		// Rule 1 (same epoch): R_x = epoch(t) → no action.
		if m.r.Size() == 1 {
			if e := m.r.Single(); e.T == t && e.C == ct.Get(t) {
				return
			}
		}
		// Race check: W_x ≼ C_t.
		if !m.w.Leq(ct) {
			d.Emit(sh, detector.Race{
				Var: x, Kind: detector.WriteRead,
				FirstThread: m.w.Thread(), SecondThread: t,
				FirstSite: m.wSite, SecondSite: site,
			})
		}
	}

	if d.sampling {
		// Rules 2-4, sampling column: exactly FASTTRACK's update.
		if m == nil {
			m = d.Insert(si, x)
		}
		if m.r.Size() <= 1 && m.r.Leq(ct) {
			m.r.SetEpoch(vclock.ReadEntry{T: t, C: ct.Get(t), Site: uint32(site)})
		} else {
			m.r.Set(t, ct.Get(t), uint32(site))
		}
		return
	}
	// Non-sampling column: discard what FASTTRACK would have replaced.
	if d.opts.DisableDiscard {
		return
	}
	switch {
	case m.r.Size() == 1 && m.r.Leq(ct):
		// Rule 2: the prior read happens before this one; any future
		// access racing with it also races with a later access, so it
		// cannot be the first access of a sampled shortest race.
		m.r.Clear()
	case m.r.Size() > 1:
		// Rule 3: discard t's own entry only.
		m.r.Remove(t)
	}
	d.maybeDiscard(si, x, m)
}

// Write implements wr(t, x) (Algorithm 13; Table 4 Rules 5-7).
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	m, exists := sh.Vars[x]
	if !d.sampling && !exists {
		sh.Stats.WriteFast[detector.NonSampling]++
		return
	}
	p := d.period()
	sh.Stats.WriteSlow[p]++
	tm := d.thread(t)
	ct := tm.clock

	if exists {
		// Rule 5 (same epoch): W_x = epoch(t) → no action.
		if !m.w.IsZero() && m.w.Thread() == t && m.w.Clock() == ct.Get(t) {
			return
		}
		// Race checks: W_x ≼ C_t and R_x ⊑ C_t.
		if !m.w.Leq(ct) {
			d.Emit(sh, detector.Race{
				Var: x, Kind: detector.WriteWrite,
				FirstThread: m.w.Thread(), SecondThread: t,
				FirstSite: m.wSite, SecondSite: site,
			})
		}
		m.r.Racing(ct, func(e vclock.ReadEntry) {
			d.Emit(sh, detector.Race{
				Var: x, Kind: detector.ReadWrite,
				FirstThread: e.T, SecondThread: t,
				FirstSite: event.Site(e.Site), SecondSite: site,
			})
		})
	}

	if d.sampling {
		// Rules 6-7, sampling column: W_x ← epoch(t), R_x cleared.
		if m == nil {
			m = d.Insert(si, x)
		}
		m.r.Clear()
		m.w = vclock.MakeEpoch(t, ct.Get(t))
		m.wSite = site
		return
	}
	// Non-sampling column: this write supersedes all recorded accesses as
	// the potential last racer, and it is itself unsampled — discard.
	if d.opts.DisableDiscard {
		return
	}
	if exists {
		d.Delete(si, x, m)
	}
}

// maybeDiscard removes x's table entry once it carries no information,
// reclaiming space (Section 4's null metadata header word).
func (d *Detector) maybeDiscard(si int, x event.Var, m *varMeta) {
	if m.w.IsZero() && m.r.IsEmpty() {
		d.Delete(si, x, m)
	}
}

// MetadataWords implements detector.MemoryAccounted. Shared vector clocks
// are counted once, reflecting the space saving of shallow copies.
func (d *Detector) MetadataWords() int {
	seen := make(map[*vclock.VC]bool)
	w := 0
	count := func(c *vclock.VC) {
		if c == nil || seen[c] {
			return
		}
		seen[c] = true
		w += c.MemoryWords()
	}
	for _, tm := range d.threads {
		if tm == nil {
			continue
		}
		count(tm.clock)
		count(tm.ver)
	}
	for _, s := range d.locks {
		count(s.clock)
		w += 1 // version epoch word
	}
	for _, s := range d.vols {
		count(s.clock)
		w += 1
	}
	d.forEachVar(func(_ event.Var, m *varMeta) bool {
		w += 2 + m.r.MemoryWords()
		return true
	})
	return w
}
