// Package djit implements the Djit+ race detector of Pozniansky and
// Schuster's MultiRace (Section 6.2 of the PACER paper), the strongest
// vector-clock detector before FASTTRACK. Djit+ keeps GENERIC's full read
// and write vector clocks but eliminates redundant analysis with *time
// frames*: a thread's time frame advances only at synchronization releases,
// and within one frame a second read (or write) of the same variable by
// the same thread cannot detect anything new, so its O(n) analysis is
// skipped.
//
// The package completes the repository's lineage of baselines —
// GENERIC → DJIT+ → FASTTRACK → PACER — so the benchmarks can show each
// paper's incremental win. Like the other precise backends it implements
// the detector.Sharded contract through the metadata store of
// internal/detector/shardbase, so the concurrent front-end, the slab
// arena, and tree clocks cover it like any other sharded backend (the
// per-variable read and write clocks stay flat: they take arbitrary
// component assignments the tree index cannot track). Being always-on, its
// published sampling flag is constantly set; it offers no lock-free
// dismissals (the time-frame check needs the variable's frame table), so
// every access takes the front-end's shard lock.
package djit

import (
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// frameSkips counts one shard's accesses dismissed by the time-frame
// check — the quantity Djit+'s optimization is about. The pad keeps the
// counters of distinct shards on distinct cache lines.
type frameSkips struct {
	n uint64
	_ [56]byte
}

type varMeta struct {
	r, w           *vclock.VC
	rSites, wSites []event.Site
	// rFrame and wFrame record the time frame of each thread's last
	// analyzed read/write, enabling the same-frame skip.
	rFrame, wFrame []uint64
}

// Detector is the DJIT+ analysis. It is not safe for unrestricted
// concurrent use, but it admits the sharded reader-writer discipline of
// detector.Sharded: Read and Write calls for variables in distinct shards
// (ShardOf) may run concurrently, provided same-shard calls are serialized
// by the caller, no other method is in flight, every thread identifier was
// announced via EnsureThreadSlots before its first shared-mode access, and
// a single thread's operations are never issued concurrently. Under that
// contract accesses only read their own thread's clock (stable between
// synchronization operations) and mutate per-shard state. The embedded
// store's state word is the constant 1 (DJIT+ is always-on) and its
// presence filter never decrements (DJIT+ never discards metadata).
type Detector struct {
	shardbase.Store[varMeta]
	sync  *detector.BaseSync
	skips []frameSkips // indexed like the store's shards
}

var (
	_ detector.Detector        = (*Detector)(nil)
	_ detector.Counted         = (*Detector)(nil)
	_ detector.MemoryAccounted = (*Detector)(nil)
	_ detector.VarAccounted    = (*Detector)(nil)
	_ detector.Sharded         = (*Detector)(nil)
	_ detector.ArenaAccounted  = (*Detector)(nil)
)

// New returns a DJIT+ detector with the default store.
func New(report detector.Reporter) *Detector {
	return NewWithConfig(report, shardbase.Config{})
}

// NewWithConfig returns a DJIT+ detector with an explicit store
// configuration. DJIT+ never discards metadata, so the arena recycles
// nothing; its benefit is size-class capacity headroom on clock growth and
// uniform arena accounting.
func NewWithConfig(report detector.Reporter, cfg shardbase.Config) *Detector {
	d := &Detector{}
	// DJIT+ never deletes a record, so none is recycled: no reset.
	d.Init(report, cfg, false, nil)
	d.skips = make([]frameSkips, d.Shards())
	d.sync = detector.NewBaseSync(&d.SyncStats)
	d.sync.SetAllocator(d.Clocks())
	d.State().SetAlwaysOn()
	return d
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "djit+" }

// FrameSkips returns the number of accesses dismissed by the time-frame
// check, summed across shards. Exclusive access required.
func (d *Detector) FrameSkips() uint64 {
	n := uint64(0)
	for i := range d.skips {
		n += d.skips[i].n
	}
	return n
}

// EnsureThreadSlots pre-grows the thread table to hold identifiers below
// n, so shared-mode Read/Write calls never resize it. Requires exclusive
// access.
func (d *Detector) EnsureThreadSlots(n int) { d.sync.EnsureThreadSlots(n) }

func (d *Detector) varMeta(si int, x event.Var) *varMeta {
	if m, ok := d.Table[si].Vars[x]; ok {
		return m
	}
	m := d.Insert(si, x)
	a := d.VCAlloc(si)
	m.r, m.w = shardbase.NewVC(a, 0), shardbase.NewVC(a, 0)
	return m
}

func frameAt(frames []uint64, t vclock.Thread) uint64 {
	if int(t) < len(frames) {
		return frames[t]
	}
	return 0
}

func setFrame(frames *[]uint64, t vclock.Thread, f uint64) {
	for int(t) >= len(*frames) {
		*frames = append(*frames, 0)
	}
	(*frames)[t] = f
}

func siteAt(sites []event.Site, t vclock.Thread) event.Site {
	if int(t) < len(sites) {
		return sites[t]
	}
	return 0
}

func setSite(sites *[]event.Site, t vclock.Thread, s event.Site) {
	for int(t) >= len(*sites) {
		*sites = append(*sites, 0)
	}
	(*sites)[t] = s
}

func (d *Detector) checkLeq(sh *shardbase.Shard[varMeta], prior *vclock.VC, sites []event.Site,
	ct *vclock.VC, kind detector.RaceKind, x event.Var, t vclock.Thread, site event.Site) {
	if prior.Leq(ct) {
		return
	}
	for u := vclock.Thread(0); int(u) < prior.Len(); u++ {
		if prior.Get(u) > ct.Get(u) {
			d.Emit(sh, detector.Race{
				Var: x, Kind: kind,
				FirstThread: u, SecondThread: t,
				FirstSite: siteAt(sites, u), SecondSite: site,
			})
		}
	}
}

// Read performs the GENERIC read analysis unless this thread already read
// x in its current time frame.
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	sh.Stats.ReadSlow[detector.Sampling]++
	ct := d.sync.ThreadClock(t)
	m := d.varMeta(si, x)
	frame := ct.Get(t) + 1 // frames are 1-based so the zero value means "never"
	if frameAt(m.rFrame, t) == frame {
		d.skips[si].n++
		return
	}
	d.checkLeq(sh, m.w, m.wSites, ct, detector.WriteRead, x, t, site)
	m.r.Set(t, ct.Get(t))
	setSite(&m.rSites, t, site)
	setFrame(&m.rFrame, t, frame)
}

// Write performs the GENERIC write analysis unless this thread already
// wrote x in its current time frame.
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, _ uint32) {
	si := d.ShardOf(x)
	sh := &d.Table[si]
	sh.Stats.WriteSlow[detector.Sampling]++
	ct := d.sync.ThreadClock(t)
	m := d.varMeta(si, x)
	frame := ct.Get(t) + 1
	if frameAt(m.wFrame, t) == frame {
		d.skips[si].n++
		return
	}
	d.checkLeq(sh, m.w, m.wSites, ct, detector.WriteWrite, x, t, site)
	d.checkLeq(sh, m.r, m.rSites, ct, detector.ReadWrite, x, t, site)
	m.w.Set(t, ct.Get(t))
	setSite(&m.wSites, t, site)
	setFrame(&m.wFrame, t, frame)
}

// Acquire implements Algorithm 1.
func (d *Detector) Acquire(t vclock.Thread, m event.Lock) { d.sync.Acquire(t, m) }

// Release implements Algorithm 2 (and advances t's time frame).
func (d *Detector) Release(t vclock.Thread, m event.Lock) { d.sync.Release(t, m) }

// Fork implements Algorithm 3.
func (d *Detector) Fork(t, u vclock.Thread) { d.sync.Fork(t, u) }

// Join implements Algorithm 4.
func (d *Detector) Join(t, u vclock.Thread) { d.sync.Join(t, u) }

// VolRead implements Algorithm 14.
func (d *Detector) VolRead(t vclock.Thread, vx event.Volatile) { d.sync.VolRead(t, vx) }

// VolWrite implements Algorithm 15.
func (d *Detector) VolWrite(t vclock.Thread, vx event.Volatile) { d.sync.VolWrite(t, vx) }

// MetadataWords implements detector.MemoryAccounted.
func (d *Detector) MetadataWords() int {
	w := d.sync.MetadataWords()
	for i := range d.Table {
		for _, m := range d.Table[i].Vars {
			w += m.r.MemoryWords() + m.w.MemoryWords() +
				(len(m.rSites)+len(m.wSites)+len(m.rFrame)+len(m.wFrame))/2 + 2
		}
	}
	return w
}
