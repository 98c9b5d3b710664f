// Package pacer is a sampling data-race detector for concurrent programs,
// implementing Bond, Coons, and McKinley's PACER algorithm (PLDI 2010).
//
// PACER tracks the happens-before relationship with the FastTrack
// algorithm during global sampling periods and almost no work outside
// them, giving a proportionality guarantee: every race is detected with
// probability equal to the sampling rate, at time and space overheads that
// also scale with the sampling rate. It is precise — every report is a
// true race.
//
// Applications register threads and synchronization objects and notify the
// detector at reads, writes, lock operations, volatile accesses, forks,
// and joins:
//
//	d := pacer.New(pacer.Options{SamplingRate: 0.03, OnRace: report})
//	t := d.NewThread()
//	u := d.Fork(t)
//	d.Write(t, account, siteDeposit)
//	d.Read(u, account, siteAudit) // 3% chance this race is reported
//
// The convenience wrappers Mutex and Shared instrument common patterns
// automatically. For simulation-based evaluation and the paper's
// experiments, see cmd/pacerbench and the internal packages.
//
// # Backends
//
// The ingestion front-end is backend-agnostic: Options.Algorithm mounts
// any registered race-detection backend ("pacer" by default, or
// "fasttrack", "o1samples", "literace", "generic")
// behind the identical public API, so competing analyses can be compared
// on real wall-clock workloads through the exact code path production
// uses. Backends advertise capabilities via interfaces (sampling periods,
// sharded concurrency with an ordered list of lock-free access
// dismissals, thread reuse, accounting); the front-end degrades
// gracefully where a capability is absent — in particular, backends
// without sampling periods run with always-sample semantics (every
// operation is analyzed) and backends without sharding support are driven
// fully serialized under the epoch lock.
//
// # Concurrency
//
// All methods may be called from any goroutine, with one inherent rule:
// operations for a single ThreadID must not be issued concurrently with
// each other (a logical thread is sequential by definition).
//
// With the default PACER backend the front-end is built so the cost of
// ingestion scales with the sampling rate, matching the algorithm it
// feeds:
//
//   - Outside sampling periods, a Read or Write of a variable holding no
//     metadata returns on a lock-free fast path: two atomic loads (the
//     published sampling-state word and a metadata presence filter) plus
//     one atomic add on the calling thread's own counter cell. No mutex
//     is touched, and between period-clock flushes no shared cache line
//     is written.
//   - An instrumentation front door that names variables lazily (pacergo's
//     runtime shim) goes one step earlier: outside sampling periods, an
//     access to an address it has not yet given a VarID is dismissed
//     before a VarID exists (ProbeUnclaimed, DismissUnclaimed). Its own
//     claim-word load stands in for the presence filter. The two probes,
//     and DismissSync for synchronization, are pure: the front door counts
//     what they dismiss in plain per-goroutine memory and publishes it in
//     batches with Count, so such a dismissal is two state-word loads and
//     no atomic read-modify-write at all.
//   - During sampling periods, variable metadata is striped across shards
//     (hash of VarID); accesses to variables in distinct shards proceed in
//     parallel, each under its shard lock plus a shared (reader) hold on
//     the epoch lock.
//   - A synchronization operation that PACER's version epochs prove a
//     no-op is dismissed before the epoch lock: an acquire or volatile
//     read of an object whose published version epoch is ⊥ve or the
//     thread's own (Table 7 Rule 4), and, outside sampling periods, a
//     release or volatile write that would store the snapshot the object
//     already holds. The probe reads only the calling thread's own
//     component (a few atomic loads), and the operation is counted with
//     one add on the thread's counter cell.
//   - Every other synchronization operation, and every sampling-period
//     transition, takes the epoch lock exclusively, freezing all
//     accesses, so every execution is equivalent to some serialized
//     interleaving of the observed operations — the detector never
//     reports a race that a fully serialized detector could not report.
//   - Each registered thread owns a cache-line-padded counter cell: its
//     fast-path read and write dismissals, its sync dismissals and its
//     slow-path accesses, plus whatever a front door publishes for it
//     with Count. Each counter flushes a batch to the period roller
//     whenever it crosses a power-of-two boundary, and Count adds its
//     dismissals in one step, so the sampling clock advances without a
//     shared contended word and without a division.
package pacer

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pacer/internal/backends"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// ThreadID identifies a registered thread.
type ThreadID = vclock.Thread

// VarID identifies a shared data variable.
type VarID = event.Var

// LockID identifies a lock.
type LockID = event.Lock

// VolatileID identifies a volatile variable.
type VolatileID = event.Volatile

// SiteID identifies a static program location; races are reported as site
// pairs.
type SiteID = event.Site

// Event is one observed operation, as recorded by Options.TraceSink. The
// sequence of events delivered to a sink is a faithful linearization:
// replaying it through a serialized detector reproduces the analysis this
// detector performed.
type Event = event.Event

// RaceKind classifies a race by its two accesses, first access first.
type RaceKind = detector.RaceKind

// Race kinds.
const (
	WriteWrite = detector.WriteWrite
	WriteRead  = detector.WriteRead
	ReadWrite  = detector.ReadWrite
)

// Race is a detected data race. The first access is the earlier one (the
// one whose metadata was recorded during a sampling period).
type Race = detector.Race

// Options configure a Detector.
type Options struct {
	// Algorithm selects the detection backend mounted behind the
	// front-end: "pacer" (the default), "fasttrack", "o1samples",
	// "literace", or "generic" — see Algorithms. Every one is precise:
	// each report is a true race.
	// Backends without sampling periods analyze every operation
	// (SamplingRate is ignored and Sampling reports true); backends
	// without sharded-concurrency support are driven serialized under the
	// epoch lock, which preserves correctness at the cost of parallelism.
	Algorithm string
	// SamplingRate is the global sampling rate r in [0, 1]. Every race is
	// detected with probability r; time and space overheads scale with r.
	// 0.01-0.03 is the paper's deployment recommendation.
	SamplingRate float64
	// PeriodOps is the number of observed operations per sampling-decision
	// period. The paper toggles sampling at garbage collections; without a
	// GC to hook, this library uses fixed-length operation periods, which
	// need no bias correction. Defaults to 4096. Period boundaries are
	// approximate: each thread counts its fast-path reads, fast-path
	// writes, slow-path accesses and sync dismissals separately and
	// flushes each to the roller in small batches (PeriodOps/64 rounded
	// down to a power of two, at most 64), so a period may run over by up
	// to one batch per counter per active thread. A front door's
	// dismissals reach the roller only when it publishes them with Count
	// (pacergo's runtime shim holds up to 63 per goroutine).
	PeriodOps int
	// OnRace receives race reports. Accesses to variables in distinct
	// shards analyze in parallel, so OnRace may be invoked from multiple
	// goroutines concurrently; synchronize inside the callback (or use an
	// Aggregator, which is already safe). Keep it fast — it runs with the
	// reporting variable's shard lock held.
	OnRace func(Race)
	// Seed makes period selection (and any backend-internal randomness,
	// e.g. LITERACE's burst resets) deterministic; 0 seeds from 1. (With
	// concurrent callers the roll sequence is still deterministic, but
	// which operations land in which period depends on scheduling.)
	Seed int64
	// Budget, when TargetOverhead is nonzero, replaces the fixed
	// SamplingRate with an adaptive controller that keeps the measured
	// analysis overhead near the target (see BudgetOptions). Only
	// meaningful for backends with sampling periods.
	Budget BudgetOptions
	// Shards is the number of variable-metadata shards of the sharded
	// backends (pacer, fasttrack, o1samples, literace; the serialized
	// generic backend ignores it), rounded up to a power of two; default
	// 64. More shards admit more parallelism during sampling periods and a
	// finer-grained fast-path presence filter, at a small fixed memory
	// cost per detector.
	Shards int
	// Serialized disables the concurrent front-end: every operation takes
	// the epoch lock exclusively and no lock-free dismissal runs,
	// reproducing the classic single-mutex behavior. Useful as a
	// differential-testing reference and as a benchmark baseline. Implied
	// for backends that do not support sharded concurrency.
	Serialized bool
	// TraceSink, when set, receives every observed operation (including
	// sampling-period transitions as SampleBegin/SampleEnd events) in a
	// faithful linearization order: replaying the recorded trace through a
	// serialized detector reproduces this detector's analysis exactly.
	// Recording adds a global serialization point (the sink lock), so it
	// is meant for differential testing and replay debugging, not
	// production.
	TraceSink func(Event)
}

// Stats summarizes the detector's work, mirroring the operation classes of
// the paper's Table 3. Counters a backend does not expose are zero.
type Stats struct {
	// Races is the number of reports.
	Races uint64
	// Reads and Writes count observed data accesses.
	Reads, Writes uint64
	// SyncOps counts observed synchronization operations, including those
	// the front-end dismissed lock-free as version-epoch no-ops.
	SyncOps uint64
	// FastPathReads/Writes count accesses dismissed by an O(1) fast path:
	// those the backend's locked path dismisses itself (PACER's and
	// O(1)-samples' no-metadata checks, LITERACE's skipped accesses), those
	// a stage of its dismissal chain dismisses lock-free (see
	// docs/backends.md), and a front door's unclaimed dismissals.
	FastPathReads, FastPathWrites uint64
	// SlowJoins and FastJoins count O(n) versus version-skipped joins.
	// FastJoins includes the front-end's lock-free dismissals of acquires,
	// volatile reads and volatile writes, each of which a serialized
	// detector counts as one version-skipped join.
	SlowJoins, FastJoins uint64
	// DeepCopies and ShallowCopies count vector clock copies.
	// ShallowCopies includes the front-end's lock-free dismissals of
	// releases and volatile writes, each of which a serialized detector
	// counts as one shallow copy.
	DeepCopies, ShallowCopies uint64
	// VarsTracked is the number of variables currently holding metadata.
	VarsTracked int
	// MetadataWords approximates live metadata in 8-byte words.
	MetadataWords int
	// ShadowHits, ShadowMisses, and ShadowEvicts count address-keyed
	// variable resolution by a mounted instrumentation front door (see
	// MountFrontDoor): lock-free lookups that needed no new identifier,
	// registrations of addresses claimed for the first time, and explicit
	// evictions of freed addresses. ShadowHits includes ShadowUnclaimed,
	// so ShadowHits + ShadowMisses is exactly the front door's data
	// accesses. Zero when no front door is mounted.
	ShadowHits, ShadowMisses, ShadowEvicts uint64
	// ShadowUnclaimed counts accesses dismissed outside sampling periods
	// before their address was given a VarID (DismissUnclaimed), as the
	// front door published them with Count.
	ShadowUnclaimed uint64
	// ShadowVars is the number of addresses the front door currently maps
	// to variable identifiers. An address is mapped when an access to it
	// first reaches the detector, in practice a sampled one, so variables
	// only ever touched outside sampling periods are not among them.
	ShadowVars int
	// FrontDoor reports whether an instrumentation front door is mounted
	// (see MountFrontDoor) — it distinguishes "no front door" from a
	// mounted one that has not resolved anything yet, so telemetry can
	// omit the Shadow* series entirely for plain library use.
	FrontDoor bool
}

// FrontDoorStats counts the work of an instrumentation front door mounted
// ahead of the detector: the address-keyed shadow map that resolves real
// program addresses to variable identifiers. It mirrors the Shadow*
// fields of Stats.
type FrontDoorStats struct {
	// ShadowHits counts lock-free resolutions of an already-registered
	// address that the front door counts itself. Hits and unclaimed
	// dismissals it publishes with Count are counted by the detector, not
	// here; Stats adds them in.
	ShadowHits uint64
	// ShadowMisses counts first-sight registrations (a fresh VarID was
	// allocated for the address).
	ShadowMisses uint64
	// ShadowEvicts counts explicit evictions of freed addresses.
	ShadowEvicts uint64
	// ShadowVars is the number of live address mappings. An address is
	// mapped when an access to it first reaches the detector, in practice
	// a sampled one, so addresses only ever dismissed unclaimed are not
	// counted.
	ShadowVars int
}

// FrontDoorAccounted is implemented by instrumentation front doors (e.g.
// pacergo's runtime shim) that resolve real program state — addresses,
// goroutines — onto detector identifiers. Mounting one with MountFrontDoor
// folds its counters into Stats, as a backend's detector.Accounted folds
// its own. Stats calls
// FrontDoorStats on its own goroutine before taking the epoch lock, so a
// front door that tallies per goroutine can publish the caller's Tally
// there (with Count), putting the caller's own operations in the snapshot.
type FrontDoorAccounted interface {
	FrontDoorStats() FrontDoorStats
}

// shardLock is a cache-line-padded mutex striping the variable shards.
type shardLock struct {
	sync.Mutex
	_ [48]byte
}

// Detector is a thread-safe race detector front-end. The mounted backend
// is PACER unless Options.Algorithm says otherwise. See the package
// comment for the concurrency architecture; the one caller obligation is
// that a single ThreadID's operations are issued sequentially.
type Detector struct {
	// back is the mounted backend; the remaining interface fields are its
	// discovered capabilities, nil when unsupported.
	back    detector.Detector
	sharded detector.Sharded
	// state is the sharded backend's published sampling state, fetched
	// once so the lock-free probes load its word directly; nil when the
	// backend is not sharded.
	state   *detector.State
	sampler detector.Sampler
	reuser  detector.ThreadReuser
	acct    detector.Accounted
	// stages is the dismissal chain access tries before the locked path:
	// the sharded backend's Stages; empty when serialized.
	stages []detector.Stage

	// serialized is Options.Serialized, or forced when the backend lacks
	// sharded-concurrency support: every operation then takes the epoch
	// lock exclusively.
	serialized bool
	// lockFreeOK is set when the dismissals that record nothing may fire
	// (ProbeUnclaimed's and trySyncNoOp's): the front-end is concurrent
	// and no TraceSink is recording. The stages record, so they run with a
	// TraceSink too (see access).
	lockFreeOK bool
	nshards    int
	opts       Options

	// mu is the epoch lock. Exclusive: synchronization operations not
	// dismissed as no-ops, period rolls, registration, stats. Shared:
	// data-access slow paths, which additionally hold their variable's
	// shard lock. The lock-free dismissals, of accesses and of
	// synchronization operations, hold neither.
	mu    sync.RWMutex
	varMu []shardLock

	rng     *rand.Rand // guarded by mu (exclusive)
	budget  *budgetState
	periods uint64 // guarded by mu (exclusive)

	// extSampling is set once Apply ingests an explicit sampling
	// transition; the period roller then stops making its own decisions
	// (the replayed trace is authoritative). Guarded by mu (exclusive).
	extSampling bool

	// pending counts operations flushed toward the next period roll;
	// rolling gates the roll so only one goroutine performs it.
	pending atomic.Int64
	rolling atomic.Bool
	// batchMask is the flush batch minus one; the batch is a power of
	// two, so a counter crosses a batch boundary when its low bits are 0.
	batchMask uint64

	// cells holds one counter cell per registered thread, indexed by
	// ThreadID. The slice is replaced (never mutated) under mu. spill
	// counts for thread identifiers that have no cell yet.
	cells atomic.Pointer[[]*opCell]
	spill *opCell

	nextThread ThreadID
	nextLock   LockID
	nextVol    VolatileID
	// nextVar is lock-free: variables are registered from the access
	// hooks, which must not contend with synchronization on mu.
	nextVar atomic.Uint32

	// frontDoor, when mounted, contributes shadow-map counters to Stats.
	// Stats calls it before taking mu, since the front door may publish
	// the caller's tally (Count), which can roll the period under mu.
	frontDoor atomic.Pointer[FrontDoorAccounted]

	// labelMu guards the human-readable label tables (sites.go) on their
	// own small lock, so SiteLabel/Describe never contend with ingestion.
	labelMu    sync.RWMutex
	siteLabels map[SiteID]string
	varLabels  map[VarID]string
	siteFrames map[SiteID][]Frame

	// sinkMu serializes TraceSink appends; it is the innermost lock.
	sinkMu sync.Mutex
}

// Algorithms returns the mountable backend names, sorted.
func Algorithms() []string { return backends.Names() }

// New returns a detector with the given options. It panics if
// Options.Algorithm names an unregistered backend (a programming error;
// validate user input against Algorithms first).
func New(opts Options) *Detector {
	if opts.Algorithm == "" {
		opts.Algorithm = "pacer"
	}
	if opts.PeriodOps <= 0 {
		opts.PeriodOps = 4096
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.SamplingRate < 0 {
		opts.SamplingRate = 0
	}
	if opts.SamplingRate > 1 {
		opts.SamplingRate = 1
	}
	det := &Detector{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
	if opts.Budget.TargetOverhead > 0 {
		det.budget = newBudgetState(opts.Budget, opts.SamplingRate)
	}
	back, err := backends.New(opts.Algorithm, func(r detector.Race) {
		if opts.OnRace != nil {
			opts.OnRace(r)
		}
	}, backends.Config{
		Seed:   opts.Seed,
		Config: shardbase.Config{Shards: opts.Shards},
	})
	if err != nil {
		panic("pacer: " + err.Error())
	}
	det.back = back
	det.sharded, _ = back.(detector.Sharded)
	det.sampler, _ = back.(detector.Sampler)
	det.reuser, _ = back.(detector.ThreadReuser)
	det.acct, _ = back.(detector.Accounted)
	det.serialized = opts.Serialized || det.sharded == nil
	det.lockFreeOK = !det.serialized && opts.TraceSink == nil
	det.nshards = 1
	if det.sharded != nil {
		det.state = det.sharded.State()
		det.nshards = det.sharded.Shards()
	}
	if !det.serialized {
		det.stages = det.sharded.Stages()
	}
	det.varMu = make([]shardLock, det.nshards)
	cells := make([]*opCell, 0)
	det.cells.Store(&cells)
	det.spill = &opCell{}
	batch := min(max(opts.PeriodOps/64, 1), 64)
	det.batchMask = 1<<(bits.Len(uint(batch))-1) - 1
	det.rollPeriodLocked()
	return det
}

// Algorithm returns the mounted backend's name.
func (p *Detector) Algorithm() string { return p.back.Name() }

// rollPeriodLocked decides whether the next period samples. Callers hold
// mu exclusively (or are the constructor). For backends without sampling
// periods, and once Apply has taken external control of sampling, only the
// period counter is reset.
func (p *Detector) rollPeriodLocked() {
	p.pending.Store(0)
	p.periods++
	if p.sampler == nil || p.extSampling {
		return
	}
	rate := p.opts.SamplingRate
	if p.budget != nil {
		p.budget.adjust()
		rate = p.budget.rate
	}
	// Trace-sink ordering: sbegin is recorded after the state flip and send
	// before it, so the window where lock-free probes still read "not
	// sampling" lies outside the recorded sampling region — a fast-path
	// no-op can never land inside it in the log.
	sample := p.rng.Float64() < rate
	if sample && !p.sampler.Sampling() {
		p.sampler.SampleBegin()
		p.record(Event{Kind: event.SampleBegin})
	} else if !sample && p.sampler.Sampling() {
		p.record(Event{Kind: event.SampleEnd})
		p.sampler.SampleEnd()
	}
}

// record appends an event to the trace sink, if one is configured.
func (p *Detector) record(e Event) {
	if p.opts.TraceSink == nil {
		return
	}
	p.sinkMu.Lock()
	p.opts.TraceSink(e)
	p.sinkMu.Unlock()
}

// enter and exit bracket analysis work for the budget controller.
func (p *Detector) enter() time.Time {
	if p.budget == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *Detector) exit(t0 time.Time) {
	if p.budget != nil {
		p.budget.inside.Add(int64(time.Since(t0)))
	}
}

// tickLocked advances the period clock by one operation. Callers hold mu
// exclusively.
func (p *Detector) tickLocked() {
	if p.pending.Add(1) >= int64(p.opts.PeriodOps) {
		p.rollPeriodLocked()
	}
}

// opCell is one thread's counters, on two cache lines of its own: reads
// and writes count its lock-free fast-path dismissals, ureads and uwrites
// its unclaimed dismissals, ops its slow-path accesses, joins, copies and
// volCopies its dismissed acquires and volatile reads, releases, and
// volatile writes, and hits the front door's resolutions of a claimed
// address. The embedded API ticks its counters one operation at a time
// (see tick); a front door adds whole tallies (see Count).
type opCell struct {
	reads, writes, ops       atomic.Uint64
	ureads, uwrites          atomic.Uint64
	joins, copies, volCopies atomic.Uint64
	hits                     atomic.Uint64
	_                        [56]byte
}

// cell returns thread t's counter cell, or the shared spill cell when t
// has none yet.
func (p *Detector) cell(t ThreadID) *opCell {
	if cells := *p.cells.Load(); int(t) < len(cells) {
		return cells[t]
	}
	return p.spill
}

// tick advances the period clock by k operations from outside the epoch
// lock: n, a counter of the calling thread's cell, absorbs them, and each
// batch boundary it crosses flushes one batch to the shared pending
// total. The goroutine that pushes the total past PeriodOps performs the
// roll itself.
func (p *Detector) tick(n *atomic.Uint64, k uint64) {
	now := n.Add(k)
	if now&p.batchMask >= k {
		return // no boundary crossed
	}
	crossed := now&^p.batchMask - (now-k)&^p.batchMask
	if p.pending.Add(int64(crossed)) >= int64(p.opts.PeriodOps) {
		p.maybeRoll()
	}
}

// dismissed counts a lock-free fast-path dismissal of thread t's access:
// one atomic add on t's own cell.
func (p *Detector) dismissed(t ThreadID, write bool) {
	c := p.cell(t)
	if write {
		p.tick(&c.writes, 1)
	} else {
		p.tick(&c.reads, 1)
	}
}

// maybeRoll performs a period roll if one is still due once the epoch lock
// is held. The CAS gate keeps the other threads that observed the same
// threshold crossing from queueing up behind the lock.
func (p *Detector) maybeRoll() {
	if !p.rolling.CompareAndSwap(false, true) {
		return
	}
	p.mu.Lock()
	if p.pending.Load() >= int64(p.opts.PeriodOps) {
		p.rollPeriodLocked()
	}
	p.mu.Unlock()
	p.rolling.Store(false)
}

// growLocked extends the thread registry (backend slots where supported,
// and counter cells) to hold identifiers below n. Callers hold mu
// exclusively. The cell table's capacity doubles when it runs out, and
// each growth publishes a header of length n over the shared backing
// array: a reader never indexes past its own header's length, so filling
// the slots beyond it races with no reader.
func (p *Detector) growLocked(n int) {
	if p.sharded != nil {
		p.sharded.EnsureThreadSlots(n)
	}
	cells := *p.cells.Load()
	if len(cells) >= n {
		return
	}
	if cap(cells) < n {
		fresh := make([]*opCell, len(cells), max(n, 2*cap(cells)))
		copy(fresh, cells)
		cells = fresh
	}
	grown := cells[:n]
	for i := len(cells); i < n; i++ {
		grown[i] = &opCell{}
	}
	p.cells.Store(&grown)
}

// ensureThread registers a thread identifier that did not come from
// NewThread or Fork, so shared-mode accesses never grow backend state.
func (p *Detector) ensureThread(t ThreadID) {
	if int(t) < len(*p.cells.Load()) {
		return
	}
	p.mu.Lock()
	p.growLocked(int(t) + 1)
	if t >= p.nextThread {
		p.nextThread = t + 1
	}
	p.mu.Unlock()
}

// NewThread registers a new root thread (one not forked from a registered
// thread, e.g. main). Threads forked by registered threads should use
// Fork so the happens-before edge is recorded.
func (p *Detector) NewThread() ThreadID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextThread
	p.nextThread++
	p.growLocked(int(id) + 1)
	return id
}

// Fork registers a new thread forked by parent and records the
// happens-before edge fork(parent, child). With the default backend the
// child may get the identifier of a thread already joined, when parent has
// received that thread's final version (parent joined it, say); vector
// clocks then stay as wide as the threads alive at once, not as the
// threads ever forked. Once joined, an identifier names no thread until a
// Fork returns it again.
func (p *Detector) Fork(parent ThreadID) ThreadID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, reused := ThreadID(0), false
	if p.reuser != nil {
		id, reused = p.reuser.ReusableThread(parent)
	}
	if !reused {
		id = p.nextThread
		p.nextThread++
	}
	p.growLocked(int(id) + 1)
	p.back.Fork(parent, id)
	p.record(Event{Kind: event.Fork, Thread: parent, Target: uint32(id)})
	p.tickLocked()
	return id
}

// forkTo records fork(t, u) with an explicit child identifier, for trace
// replay through Apply: recorded traces fix their thread numbering.
func (p *Detector) forkTo(t, u ThreadID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.growLocked(int(u) + 1)
	if u >= p.nextThread {
		p.nextThread = u + 1
	}
	p.back.Fork(t, u)
	p.record(Event{Kind: event.Fork, Thread: t, Target: uint32(u)})
	p.tickLocked()
}

// Join records join(t, u): t blocked until u terminated. It also marks u
// terminated, and with the default backend makes its identifier a
// candidate for reuse by a later Fork (see Fork).
func (p *Detector) Join(t, u ThreadID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.back.Join(t, u)
	if p.reuser != nil {
		p.reuser.ThreadExit(u)
	}
	p.record(Event{Kind: event.Join, Thread: t, Target: uint32(u)})
	p.tickLocked()
}

// NewLockID allocates a lock identifier.
func (p *Detector) NewLockID() LockID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextLock
	p.nextLock++
	return id
}

// NewVolatileID allocates a volatile identifier.
func (p *Detector) NewVolatileID() VolatileID {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := p.nextVol
	p.nextVol++
	return id
}

// NewVarID allocates a data-variable identifier. It takes no lock.
func (p *Detector) NewVarID() VarID {
	return VarID(p.nextVar.Add(1) - 1)
}

// ProbeUnclaimed opens the unclaimed dismissal an instrumentation front
// door uses for an access to a variable it has not named yet: it returns
// the published sampling-state word, and whether that word allows the
// dismissal. It does when the front-end is concurrent, no TraceSink is
// recording, and no sampling period is in progress; backends without
// sampling periods publish the sampling bit permanently set. The caller
// then loads its own claim word for the variable and, if that reads
// unclaimed, calls DismissUnclaimed with the returned word.
func (p *Detector) ProbeUnclaimed() (uint64, bool) {
	if !p.lockFreeOK {
		return 0, false
	}
	st := p.state.Word()
	return st, st&1 == 0
}

// DismissUnclaimed completes the dismissal ProbeUnclaimed opened. If the
// state word still reads st, no sampling period was in progress at any
// instant between the two loads, and in particular when the caller found
// the variable unclaimed. The soundness argument is the no-metadata
// stage's, with the claim word standing in for the presence filter. A
// front door claims a VarID only for an access it then passes to Read or
// Write, and only when this dismissal was not allowed, so metadata exists
// only for claimed variables and the detector would have done nothing for
// this access.
// DismissUnclaimed is a pure probe: on true the access is dismissed, and
// the front door counts it in its Tally and publishes it later with
// Count. Otherwise the caller must claim a VarID and call Read or Write.
func (p *Detector) DismissUnclaimed(st uint64) bool {
	return p.state.Word() == st
}

// DismissSync reports whether the Acquire, Release, VolRead or VolWrite
// event e may be dismissed lock-free, its thread's published version
// epochs proving it a no-op (detector.Sharded's SyncNoOp; only PACER
// publishes them). Like DismissUnclaimed it is a pure probe: a front door
// that gets true counts e in its Tally, and one that gets false passes e
// on to SyncLocked, which does not probe it again. It never fires when the
// front-end is serialized or recording (nothing would log e), nor for a
// thread still on the spill cell. e must be issued by e.Thread's own
// sequential flow, as for every other operation.
func (p *Detector) DismissSync(e Event) bool {
	return p.lockFreeOK && int(e.Thread) < len(*p.cells.Load()) && p.sharded.SyncNoOp(e)
}

// Tally is a batch of one thread's operations that an instrumentation
// front door ended by itself, on a DismissUnclaimed or DismissSync probe,
// plus the claimed-address resolutions it made on the way to Read and
// Write. The front door keeps it in plain memory of the thread's own and
// publishes it in one call to Count, so a dismissal costs no atomic
// read-modify-write.
type Tally struct {
	// UnclaimedReads and UnclaimedWrites count accesses dismissed on
	// DismissUnclaimed.
	UnclaimedReads, UnclaimedWrites uint64
	// Joins counts acquires and volatile reads dismissed on DismissSync,
	// Copies releases, and VolCopies volatile writes.
	Joins, Copies, VolCopies uint64
	// ShadowHits counts resolutions of an address already holding a
	// VarID; the accesses themselves go on to Read or Write.
	ShadowHits uint64
}

// Count publishes thread t's tally n: each count is added to t's counter
// cell, where Stats finds it exactly as if each operation had been
// counted when it was made, and the period clock advances by the
// dismissals in n, batched as tick batches them (ShadowHits name
// accesses that Read or Write already clock). A publication that carries
// the clock past PeriodOps rolls the period, taking the epoch lock, so
// Count must not be called with it held (from OnRace, say). Any goroutine
// may call Count, but a thread's tally belongs to the goroutine issuing
// its operations, which is the one that should publish it.
func (p *Detector) Count(t ThreadID, n Tally) {
	c := p.cell(t)
	if n.ShadowHits != 0 {
		c.hits.Add(n.ShadowHits)
	}
	tick := func(ctr *atomic.Uint64, k uint64) {
		if k != 0 {
			p.tick(ctr, k)
		}
	}
	tick(&c.ureads, n.UnclaimedReads)
	tick(&c.uwrites, n.UnclaimedWrites)
	tick(&c.joins, n.Joins)
	tick(&c.copies, n.Copies)
	tick(&c.volCopies, n.VolCopies)
}

func accessEvent(t ThreadID, v VarID, s SiteID, method uint32, write bool) Event {
	k := event.Read
	if write {
		k = event.Write
	}
	return Event{Kind: k, Thread: t, Target: uint32(v), Site: s, Method: method}
}

// samplingLocked reports the backend's sampling state under at least a
// shared hold of mu (transitions take mu exclusively). Backends without
// sampling periods analyze everything, i.e. behave as always sampling.
func (p *Detector) samplingLocked() bool {
	return p.sampler == nil || p.sampler.Sampling()
}

// access funnels Read and Write: the dismissal chain first, then the
// sharded slow path under a shared epoch-lock hold plus the variable's
// shard lock (or the exclusive epoch lock when serialized). Trace-sink
// appends for non-sampling operations happen before the analysis (they can
// only discard metadata) and for sampling operations after it (they can
// only create metadata), which keeps the recorded order consistent with
// the lock-free probes.
//
// The chain runs each stage in order, until one dismisses the access,
// which then bumps only the thread's own counter cell. With a TraceSink
// configured each stage runs under the sink lock and a dismissal is
// recorded before the lock drops, so the recorded position is the stage's
// linearization instant.
func (p *Detector) access(t ThreadID, v VarID, s SiteID, method uint32, write bool) {
	for _, st := range p.stages {
		if p.opts.TraceSink != nil {
			p.sinkMu.Lock()
			ok := st.Try(t, v, s, method, write)
			if ok {
				p.opts.TraceSink(accessEvent(t, v, s, method, write))
			}
			p.sinkMu.Unlock()
			if !ok {
				continue
			}
		} else if !st.Try(t, v, s, method, write) {
			continue
		}
		p.dismissed(t, write)
		return
	}
	p.ensureThread(t)
	if p.serialized {
		p.mu.Lock()
	} else {
		p.mu.RLock()
	}
	sh := 0
	if p.sharded != nil {
		sh = p.sharded.ShardOf(v)
	}
	p.varMu[sh].Lock()
	sampling := p.samplingLocked()
	if !sampling {
		p.record(accessEvent(t, v, s, method, write))
	}
	t0 := p.enter()
	// With an owned-access stage in the chain, lock-free dismissals can
	// mutate metadata under the sink lock; holding the same lock across this
	// backend call keeps every recorded sampled access at exactly the
	// instant its metadata effect takes place, so the recorded order stays
	// a faithful linearization. (Lock order sinkMu → ownership word matches
	// the owned path's claim order; sink mode is a testing configuration,
	// so the lost slow-path parallelism is acceptable.)
	sink := sampling && p.opts.TraceSink != nil
	if sink {
		p.sinkMu.Lock()
	}
	if write {
		p.back.Write(t, v, s, method)
	} else {
		p.back.Read(t, v, s, method)
	}
	if sink {
		p.opts.TraceSink(accessEvent(t, v, s, method, write))
		p.sinkMu.Unlock()
	}
	p.exit(t0)
	p.varMu[sh].Unlock()
	if p.serialized {
		p.tickLocked()
		p.mu.Unlock()
		return
	}
	p.mu.RUnlock()
	p.tick(&p.cell(t).ops, 1)
}

// Read observes thread t reading variable v at site s.
func (p *Detector) Read(t ThreadID, v VarID, s SiteID) {
	p.access(t, v, s, 0, false)
}

// Write observes thread t writing variable v at site s.
func (p *Detector) Write(t ThreadID, v VarID, s SiteID) {
	p.access(t, v, s, 0, true)
}

// syncOp funnels the four lock/volatile operations. One the backend proves
// redundant is dismissed lock-free (trySyncNoOp); the rest serialize on the
// epoch lock, since they mutate thread clocks, which accesses read in
// parallel.
func (p *Detector) syncOp(e Event) {
	if p.trySyncNoOp(e) {
		return
	}
	p.SyncLocked(e)
}

// SyncLocked applies the Acquire, Release, VolRead or VolWrite event e on
// the locked path, skipping the lock-free dismissal probe that Acquire,
// Release, VolRead and VolWrite make first. It is for a front door whose
// own DismissSync probe has just rejected e: passing e on through Apply
// would probe it a second time. An op that became dismissible between the
// probe and this call is still analyzed exactly; the locked path is the
// full analysis. e.Kind must be one of the four.
func (p *Detector) SyncLocked(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t0 := p.enter()
	switch e.Kind {
	case event.Acquire:
		p.back.Acquire(e.Thread, LockID(e.Target))
	case event.Release:
		p.back.Release(e.Thread, LockID(e.Target))
	case event.VolRead:
		p.back.VolRead(e.Thread, VolatileID(e.Target))
	case event.VolWrite:
		p.back.VolWrite(e.Thread, VolatileID(e.Target))
	}
	p.exit(t0)
	p.record(e)
	p.tickLocked()
}

// trySyncNoOp attempts the lock-free sync dismissal: when DismissSync
// allows it, e is counted on its thread's own cell, which also drives the
// period clock, and dismissed. DismissSync's test is spelled out here so
// that the embedded API loads the cell table once and makes no call
// besides the backend's probe.
func (p *Detector) trySyncNoOp(e Event) bool {
	if !p.lockFreeOK {
		return false
	}
	cells := *p.cells.Load()
	if int(e.Thread) >= len(cells) || !p.sharded.SyncNoOp(e) {
		return false
	}
	c := cells[e.Thread]
	switch e.Kind {
	case event.Release:
		p.tick(&c.copies, 1)
	case event.VolWrite:
		p.tick(&c.volCopies, 1)
	default:
		p.tick(&c.joins, 1)
	}
	return true
}

// Acquire observes thread t acquiring lock m. Call it after the real lock
// is acquired.
func (p *Detector) Acquire(t ThreadID, m LockID) {
	p.syncOp(Event{Kind: event.Acquire, Thread: t, Target: uint32(m)})
}

// Release observes thread t releasing lock m. Call it before the real lock
// is released.
func (p *Detector) Release(t ThreadID, m LockID) {
	p.syncOp(Event{Kind: event.Release, Thread: t, Target: uint32(m)})
}

// VolRead observes thread t reading volatile vx (e.g. an atomic load).
func (p *Detector) VolRead(t ThreadID, vx VolatileID) {
	p.syncOp(Event{Kind: event.VolRead, Thread: t, Target: uint32(vx)})
}

// VolWrite observes thread t writing volatile vx (e.g. an atomic store).
func (p *Detector) VolWrite(t ThreadID, vx VolatileID) {
	p.syncOp(Event{Kind: event.VolWrite, Thread: t, Target: uint32(vx)})
}

// applySampling forces the backend's sampling state from a replayed
// transition and hands sampling control to the trace: the period roller
// stops making its own decisions for the rest of this detector's life.
func (p *Detector) applySampling(begin bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.extSampling = true
	if p.sampler == nil {
		return
	}
	if begin {
		p.sampler.SampleBegin()
		p.record(Event{Kind: event.SampleBegin})
	} else {
		p.record(Event{Kind: event.SampleEnd})
		p.sampler.SampleEnd()
	}
}

// Apply ingests one recorded event through the same front-end paths the
// direct methods use, so replaying a trace exercises exactly the code a
// live application exercises. Thread identifiers are taken from the event
// (registered on first use — Fork events keep their recorded child id),
// and access events carry their recorded Method through to backends that
// sample per method (LITERACE). SampleBegin/SampleEnd events force the
// backend's sampling state and switch the detector to external sampling
// control; traces without them (e.g. racereplay recordings) are sampled by
// the detector's own seeded period roller, so replays are reproducible
// run-to-run for a fixed Options.Seed.
func (p *Detector) Apply(e Event) {
	switch e.Kind {
	case event.Read:
		p.access(e.Thread, VarID(e.Target), e.Site, e.Method, false)
	case event.Write:
		p.access(e.Thread, VarID(e.Target), e.Site, e.Method, true)
	case event.Acquire:
		p.Acquire(e.Thread, LockID(e.Target))
	case event.Release:
		p.Release(e.Thread, LockID(e.Target))
	case event.Fork:
		p.forkTo(e.Thread, ThreadID(e.Target))
	case event.Join:
		p.Join(e.Thread, ThreadID(e.Target))
	case event.VolRead:
		p.VolRead(e.Thread, VolatileID(e.Target))
	case event.VolWrite:
		p.VolWrite(e.Thread, VolatileID(e.Target))
	case event.SampleBegin:
		p.applySampling(true)
	case event.SampleEnd:
		p.applySampling(false)
	}
}

// Sampling reports whether the detector is currently in a sampling period.
// It is lock-free for the default backend. Backends without sampling
// periods analyze every operation, so Sampling reports true for them.
func (p *Detector) Sampling() bool {
	if p.sampler == nil {
		return true
	}
	if p.sharded != nil {
		return p.state.Word()&1 == 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sampler.Sampling()
}

// ShardCount returns the number of variable-metadata shards in use (the
// Options.Shards knob after rounding), or 1 for backends driven
// serialized.
func (p *Detector) ShardCount() int { return p.nshards }

// MountFrontDoor registers an instrumentation front door whose counters
// Stats should fold in (the Shadow* fields). At most one front door is
// mounted; a second call replaces the first.
func (p *Detector) MountFrontDoor(f FrontDoorAccounted) {
	p.frontDoor.Store(&f)
}

// Stats returns a snapshot of the detector's work counters. Counters the
// mounted backend does not expose are zero.
//
// A mounted front door's counters are read first, before the epoch lock:
// the front door publishes the calling goroutine's own Tally then (see
// FrontDoorAccounted), and a publication may roll the period. Stats then
// takes the epoch lock exclusively, so in-flight slow-path operations
// complete first. An operation counted lock-free, on the embedded API's
// fast paths or with Count, is in the snapshot if it happened before this
// call. So with pacergo's runtime shim mounted, the counts are exact for
// every goroutine that has exited, whose later hook reached the detector,
// or that is calling Stats; every other live goroutine may hold up to 63
// dismissals not yet published.
func (p *Detector) Stats() Stats {
	var fd FrontDoorStats
	door := p.frontDoor.Load()
	if door != nil {
		fd = (*door).FrontDoorStats()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var s Stats
	var fr, fw, ur, uw, sj, sc, svc, hits uint64
	for _, cell := range append([]*opCell{p.spill}, *p.cells.Load()...) {
		fr += cell.reads.Load()
		fw += cell.writes.Load()
		ur += cell.ureads.Load()
		uw += cell.uwrites.Load()
		sj += cell.joins.Load()
		sc += cell.copies.Load()
		svc += cell.volCopies.Load()
		hits += cell.hits.Load()
	}
	// Unclaimed dismissals are non-sampling fast-path dismissals too.
	fr, fw = fr+ur, fw+uw
	if p.acct != nil {
		c := p.acct.Stats()
		s = Stats{
			Races:          c.Races,
			Reads:          c.TotalReads() + fr,
			Writes:         c.TotalWrites() + fw,
			SyncOps:        c.TotalSyncOps() + sj + sc + svc,
			FastPathReads:  c.ReadFast[0] + c.ReadFast[1] + fr,
			FastPathWrites: c.WriteFast[0] + c.WriteFast[1] + fw,
			SlowJoins:      c.SlowJoins[0] + c.SlowJoins[1],
			// A dismissed volatile write is a fast join plus a shallow
			// copy, as in the backend's joinIntoVolatile.
			FastJoins:     c.FastJoins[0] + c.FastJoins[1] + sj + svc,
			DeepCopies:    c.DeepCopies[0] + c.DeepCopies[1],
			ShallowCopies: c.ShallowCopies[0] + c.ShallowCopies[1] + sc + svc,
			VarsTracked:   p.acct.VarsTracked(),
			MetadataWords: p.acct.MetadataWords(),
		}
	}
	if door != nil {
		s.FrontDoor = true
		s.ShadowHits = fd.ShadowHits + hits + ur + uw
		s.ShadowUnclaimed = ur + uw
		s.ShadowMisses = fd.ShadowMisses
		s.ShadowEvicts = fd.ShadowEvicts
		s.ShadowVars = fd.ShadowVars
	}
	return s
}
