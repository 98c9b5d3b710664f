// Package o1samples implements a sampling race detector whose per-variable
// metadata is constant size, after the direction of "Dynamic Race Detection
// with O(1) Samples" (see PAPERS.md): one write epoch and one read epoch per
// variable, no matter how many threads touch it.
//
// The discipline inverts PACER's trade. PACER records full FASTTRACK
// metadata during sampling periods (including the adaptive read map, whose
// worst case is a vector clock per variable) and spends non-sampling
// periods discarding it. Here the synchronization analysis runs at full
// precision all the time (BaseSync — cheap once tree clocks make joins
// proportional to what changed), while access metadata obeys a strict O(1)
// budget:
//
//   - A sampled access *records*: a write overwrites the variable's single
//     write epoch (clearing the read slot, like the paper's modified
//     FASTTRACK); a read overwrites the single read slot. Nothing else is
//     ever allocated per variable, so the metadata population costs
//     exactly (records) × 6 words.
//   - Every access — sampled or not — *checks* the recorded epochs against
//     the thread's clock (two constant-time Epoch.Leq probes). The clocks
//     are exact, so every report is a true race: the detector is precise at
//     every sampling rate.
//
// What the budget gives up is completeness at rate 1.0: with a single read
// slot, a write racing with several concurrent reads reports against the
// last sampled one only, so the conformance suite holds this backend to the
// precision band, not exact agreement (see exactness notes in the oracle
// suite). In exchange, detection of a race needs only its *first* access to
// fall in a sampling period — the recorded epoch persists until the next
// sampled access of its kind, so the checking side rides along for free on
// every later access.
//
// The detector mounts the same concurrency plumbing as PACER and FASTTRACK
// (internal/detector/shardbase): the Sharded stripe geometry, the published
// sampling-state word and presence filter behind the no-metadata stage,
// and the epoch mirrors behind the same-epoch stage, the two stages of its
// dismissal chain. It deliberately omits the owned-access stage: with a single read slot there is no multi-entry
// read map to protect, and the epoch mirrors already dismiss the repeat
// accesses that matter.
package o1samples

import (
	"sync/atomic"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// varMeta is the entire per-variable state: six words, always. The epochs
// name the last *sampled* write and read; zero means "no sampled access of
// that kind recorded yet" (thread clocks start at 1, so a live epoch never
// packs to zero).
type varMeta struct {
	w     vclock.Epoch
	wSite event.Site
	r     vclock.Epoch
	rSite event.Site
	// aw and ar are the lock-free mirrors of the two epochs read by the
	// same-epoch stage, maintained with the usual conservative discipline:
	// cleared before the slot mutates, republished after it settles.
	aw, ar atomic.Uint64
}

// publishMirrors republishes both epoch mirrors from the record's settled
// state. Called under the variable's shard lock, after every mutation.
func (m *varMeta) publishMirrors() {
	m.aw.Store(uint64(m.w))
	m.ar.Store(uint64(m.r))
}

// Detector is the O(1)-samples analysis. It admits the same sharded
// reader-writer discipline as the other shardbase backends (see
// detector.Sharded and the FASTTRACK documentation for the full contract):
// synchronization operations and sampling transitions require exclusive
// access; Read and Write may run concurrently across shards; the State
// word, MetaPossible, and both stages of the dismissal chain are
// lock-free.
//
// The embedded store's presence filter counts recorded variables. Records
// are created only by sampled accesses and never discarded, so outside
// sampling periods the no-metadata stage dismisses every access to a
// never-sampled variable without touching a lock.
type Detector struct {
	shardbase.Store[varMeta]
	sync     *detector.BaseSync
	sampling bool
	tpub     shardbase.ThreadPub
}

var (
	_ detector.Detector  = (*Detector)(nil)
	_ detector.Sampler   = (*Detector)(nil)
	_ detector.Accounted = (*Detector)(nil)
	_ detector.Sharded   = (*Detector)(nil)
)

// New returns an O(1)-samples detector with the default store.
func New(report detector.Reporter) *Detector {
	return NewWithConfig(report, shardbase.Config{})
}

// NewWithConfig returns an O(1)-samples detector with an explicit store
// configuration. Records are constant-size and never discarded, so the
// arena's benefit is clock-growth capacity headroom and uniform arena
// accounting; the always-on synchronization analysis is where this
// backend spends its vector-clock work, so tree clocks are the natural
// pairing.
func NewWithConfig(report detector.Reporter, cfg shardbase.Config) *Detector {
	d := &Detector{}
	// Records are never deleted, so none is recycled: no reset.
	d.Init(report, cfg, nil)
	d.sync = detector.NewBaseSync(&d.SyncStats)
	d.sync.SetAllocator(d.Clocks())
	// The state word starts "not sampling, zero transitions"; the first
	// SampleBegin publishes the flag.
	return d
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "o1samples" }

// Sampling implements detector.Sampler.
func (d *Detector) Sampling() bool { return d.sampling }

// SampleBegin enters a sampling period. Unlike PACER, no clocks advance
// here: logical time never freezes (the synchronization analysis runs at
// full precision in every period), so period boundaries carry no analysis
// state of their own — only the recording flag flips.
func (d *Detector) SampleBegin() {
	if d.sampling {
		return
	}
	d.sampling = true
	d.State().Publish(true)
}

// SampleEnd leaves the sampling period. Recorded epochs persist — they are
// what the non-sampling checks run against — so nothing is reclaimed; the
// store only trims free-list slack built up by clock growth.
func (d *Detector) SampleEnd() {
	if !d.sampling {
		return
	}
	d.sampling = false
	d.State().Publish(false)
	d.Trim()
}

func (d *Detector) period() detector.Period { return detector.PeriodOf(d.sampling) }

// EnsureThreadSlots pre-grows the thread tables to hold identifiers below
// n. Requires exclusive access.
func (d *Detector) EnsureThreadSlots(n int) {
	d.sync.EnsureThreadSlots(n)
	d.tpub.Ensure(n)
}

// publishEpoch republishes thread t's packed epoch c@t and clock pointer.
func (d *Detector) publishEpoch(t vclock.Thread) {
	d.tpub.Publish(t, d.sync.ThreadClock(t))
}

// seedEpoch publishes thread t's epoch only if it has never been published
// — the same SmartTrack-style trim as FASTTRACK: every operation that
// advances t's own component republishes, so between them the published
// epoch stays current by itself.
func (d *Detector) seedEpoch(t vclock.Thread) {
	if d.tpub.Epoch(t) == 0 {
		d.publishEpoch(t)
	}
}

// Stages implements detector.Sharded: the no-metadata stage, then the
// same-epoch stage.
func (d *Detector) Stages() []detector.Stage {
	return []detector.Stage{
		{Name: detector.StageNoMetadata, Try: d.NoMetadata},
		{Name: detector.StageSameEpoch, Try: d.TrySameEpoch},
	}
}

// TrySameEpoch is the same-epoch stage: a lock-free proof that the
// access repeats the epoch of the variable's last sampled access of the
// same kind by the same thread, which the locked path below dismisses
// unconditionally (the race checks ran, against the same write epoch, when
// that sample was recorded — a sampled write clears the read slot, so a
// surviving read mirror also certifies the write epoch is unchanged).
func (d *Detector) TrySameEpoch(t vclock.Thread, x event.Var, _ event.Site, _ uint32, write bool) bool {
	e := d.tpub.Epoch(t)
	if e == 0 {
		return false
	}
	m := d.Peek(x)
	if m == nil {
		return false
	}
	if write {
		return m.aw.Load() == e
	}
	return m.ar.Load() == e
}

// varMetaFor returns x's record in shard si, creating it on first sampled
// access. Only sampled accesses create records — that is the entire space
// discipline — so callers on the non-sampling path use Lookup instead.
func (d *Detector) varMetaFor(si int, x event.Var) *varMeta {
	if m := d.Lookup(si, x); m != nil {
		return m
	}
	return d.Insert(si, x)
}

// Read checks the recorded write epoch against C_t and, when sampling,
// overwrites the read slot with this access.
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	p := d.period()
	ct := d.sync.ThreadClock(t)
	d.seedEpoch(t)
	var m *varMeta
	if d.sampling {
		m = d.varMetaFor(si, x)
	} else if m = d.Lookup(si, x); m == nil {
		// Never sampled: nothing to check, nothing to record. This is the
		// locked twin of the front-end's lock-free dismissal.
		sh.Stats.ReadFast[p]++
		return
	}
	sh.Stats.ReadSlow[p]++
	c := ct.Get(t)
	// Same epoch as the recorded read: the write check ran, against this
	// same write epoch, when the slot was recorded (a sampled write would
	// have cleared it) — nothing to re-check or re-record, regardless of
	// the current period.
	if m.r == vclock.MakeEpoch(t, c) {
		return
	}
	// check W_x ⊑ C_t.
	if !m.w.Leq(ct) {
		d.Emit(sh, detector.Race{
			Var: x, Kind: detector.WriteRead,
			FirstThread: m.w.Thread(), SecondThread: t,
			FirstSite: m.wSite, SecondSite: site,
		})
	}
	if !d.sampling {
		return
	}
	// Record: this read becomes the variable's read sample. Close the
	// lock-free dismissal until the new slot is settled.
	m.ar.Store(0)
	m.r = vclock.MakeEpoch(t, c)
	m.rSite = site
	m.publishMirrors()
}

// Write checks both recorded epochs against C_t and, when sampling,
// overwrites the write epoch (clearing the read slot, like the paper's
// modified FASTTRACK: the new write subsumes it as the frontier the next
// access must be ordered after).
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	p := d.period()
	ct := d.sync.ThreadClock(t)
	d.seedEpoch(t)
	var m *varMeta
	if d.sampling {
		m = d.varMetaFor(si, x)
	} else if m = d.Lookup(si, x); m == nil {
		sh.Stats.WriteFast[p]++
		return
	}
	sh.Stats.WriteSlow[p]++
	c := ct.Get(t)
	// Same epoch as the recorded write: both checks ran when it was
	// recorded, and re-recording would be the identity.
	if m.w == vclock.MakeEpoch(t, c) {
		return
	}
	// check W_x ⊑ C_t.
	if !m.w.Leq(ct) {
		d.Emit(sh, detector.Race{
			Var: x, Kind: detector.WriteWrite,
			FirstThread: m.w.Thread(), SecondThread: t,
			FirstSite: m.wSite, SecondSite: site,
		})
	}
	// check R_x ⊑ C_t (the single slot is the whole read state).
	if !m.r.Leq(ct) {
		d.Emit(sh, detector.Race{
			Var: x, Kind: detector.ReadWrite,
			FirstThread: m.r.Thread(), SecondThread: t,
			FirstSite: m.rSite, SecondSite: site,
		})
	}
	if !d.sampling {
		return
	}
	m.aw.Store(0)
	m.ar.Store(0)
	m.w = vclock.MakeEpoch(t, c)
	m.wSite = site
	m.r = 0
	m.rSite = 0
	m.publishMirrors()
}

// The synchronization wrappers run the full GENERIC analysis in every
// period (sync tracking is what keeps the constant-size checks precise)
// and follow FASTTRACK's republication discipline: a thread's epoch is
// republished exactly where its own component advances. The changed bit
// BaseSync returns from Acquire and VolRead is deliberately unused — the
// trim here is unconditional, which subsumes it (an acquire can change
// every component but the thread's own).

// Acquire implements Algorithm 1.
func (d *Detector) Acquire(t vclock.Thread, m event.Lock) {
	d.sync.Acquire(t, m)
}

// Release implements Algorithm 2.
func (d *Detector) Release(t vclock.Thread, m event.Lock) {
	d.sync.Release(t, m)
	d.publishEpoch(t)
}

// Fork implements Algorithm 3.
func (d *Detector) Fork(t, u vclock.Thread) {
	d.sync.Fork(t, u)
	d.publishEpoch(t)
}

// Join implements Algorithm 4.
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

// MetadataWords implements detector.Accounted. Six words per
// recorded variable — the constant the backend is named for — plus the
// synchronization clocks.
func (d *Detector) MetadataWords() int {
	return d.sync.MetadataWords() + 6*d.VarsTracked()
}
