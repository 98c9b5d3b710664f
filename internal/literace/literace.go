// Package literace implements the online version of LITERACE that Section
// 5.3 of the PACER paper compares against: full instrumentation of all
// synchronization operations (so no happens-before edges are missed) plus
// adaptive, bursty, per-(method, thread) sampling of reads and writes,
// following the cold-region hypothesis that races live in rarely executed
// code.
//
// Each (method, thread) pair starts sampling at 100% and backs off toward a
// 0.1% floor as the method grows hotter; sampled accesses run the full
// FASTTRACK analysis, unsampled ones do nothing. As in the paper's
// reimplementation, the sampling-counter reset is randomized so repeated
// trials can catch different races, and variable metadata is never
// discarded — which is why LITERACE's space overhead does not scale with
// its effective sampling rate (Figure 10).
//
// The randomized resets draw from a per-(method, thread) stream seeded
// deterministically from Options.Seed and the key, so a key's decision
// sequence depends only on its own access count — never on how accesses of
// different keys interleave. That order-independence is what makes the
// burst-skip stage sound: the front-end may consume skip decisions
// lock-free (TrySkip) while other threads are mid-analysis, and a
// serialized replay of the recorded trace still reproduces every decision
// exactly.
//
// The detector implements detector.Sharded through its embedded FASTTRACK
// core, whose shards hold all variable metadata, and keeps the sampler
// state on its own striped locks so concurrent TrySkip probes and sampled
// analyses of different (method, thread) keys do not serialize on one
// mutex. Its dismissal chain is the burst-skip stage alone: it
// deliberately leaves out the core's same-epoch and owned-access stages,
// which dismiss accesses without consulting the sampler and so would leave
// burst decisions unconsumed and break the decision-stream determinism a
// serialized replay relies on.
package literace

import (
	"math/rand"
	"sync"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
	"pacer/internal/vclock"
)

// Options configure the sampler; the embedded FASTTRACK core's store is
// configured by shardbase.Config.
type Options struct {
	// BurstLength is the number of consecutive accesses sampled per burst.
	// The paper initially used 10 and switched to 1000 to reach ~1%
	// effective rates.
	BurstLength int
	// MinRate is the sampling-rate floor; the paper uses 0.1%.
	MinRate float64
	// Backoff divides the per-(method, thread) rate after each completed
	// burst until MinRate is reached.
	Backoff float64
	// Seed drives the randomized counter resets.
	Seed int64
}

// DefaultOptions returns the configuration used for the paper's comparison
// (burst length 1000, 0.1% floor).
func DefaultOptions() Options {
	return Options{BurstLength: 1000, MinRate: 0.001, Backoff: 10, Seed: 1}
}

type methodThread struct {
	method uint32
	thread vclock.Thread
}

type samplerState struct {
	rate  float64
	burst int        // sampled accesses remaining in the current burst
	skip  int        // accesses to skip before the next burst
	rng   *rand.Rand // per-key reset stream, deterministic in (Seed, key)
}

// samplerStripes is the number of independent sampler-state stripes. The
// stripe is chosen by hashing the (method, thread) key, so concurrent
// decisions for different keys rarely contend.
const samplerStripes = 64

// samplerStripe is one stripe of the sampler-state table with its decision
// tallies. The trailing pad keeps stripes on distinct cache lines.
type samplerStripe struct {
	mu    sync.Mutex
	state map[methodThread]*samplerState
	// sampled and skipped count data accesses by sampling decision.
	sampled, skipped uint64
	// skippedOps accumulates the fast-path counters for accesses this
	// detector's own Read/Write skipped. (FASTTRACK's Stats is an
	// aggregated snapshot, so skips are recorded here and merged in
	// Stats rather than written through the snapshot pointer.)
	skippedOps detector.Counters
	_          [64]byte
}

// Detector is the online LITERACE analysis. Synchronization operations are
// the embedded FASTTRACK core's, fully instrumented (O(n), like all
// LITERACE sync operations). Like that core it admits the detector.Sharded
// discipline for Read and Write (metadata lives in the core's shards; the
// sampler decision takes only the key's stripe lock) and requires
// exclusive access for synchronization and accounting calls. TrySkip takes
// only the key's stripe lock, so it may run concurrently with any
// operation of other threads.
type Detector struct {
	*fasttrack.Detector
	opts    Options
	stripes [samplerStripes]samplerStripe
	snap    detector.Counters // Stats() merge scratch
}

var (
	_ detector.Detector  = (*Detector)(nil)
	_ detector.Accounted = (*Detector)(nil)
	_ detector.Sharded   = (*Detector)(nil)
)

// New returns an online LITERACE detector over a default FASTTRACK store.
func New(report detector.Reporter, opts Options) *Detector {
	return NewWithConfig(report, shardbase.Config{}, opts)
}

// NewWithConfig returns an online LITERACE detector whose FASTTRACK core
// mounts the store cfg describes.
func NewWithConfig(report detector.Reporter, cfg shardbase.Config, opts Options) *Detector {
	if opts.BurstLength <= 0 {
		opts.BurstLength = 1000
	}
	if opts.MinRate <= 0 {
		opts.MinRate = 0.001
	}
	if opts.Backoff <= 1 {
		opts.Backoff = 10
	}
	d := &Detector{
		Detector: fasttrack.NewWithOptions(report, cfg, fasttrack.Options{}),
		opts:     opts,
	}
	for i := range d.stripes {
		d.stripes[i].state = make(map[methodThread]*samplerState)
	}
	return d
}

// Name implements detector.Detector.
func (d *Detector) Name() string { return "literace" }

// stripeFor hashes the (method, thread) key onto its sampler stripe
// (seed-independent, so stripe placement never changes decisions).
func (d *Detector) stripeFor(key methodThread) *samplerStripe {
	h := (uint64(key.method)+1)*0xBF58476D1CE4E5B9 ^
		(uint64(key.thread)+1)*0x94D049BB133111EB
	return &d.stripes[(h>>32)&(samplerStripes-1)]
}

// Stats returns the operation counters: the underlying FASTTRACK snapshot
// (sync operations and sampled accesses) plus this sampler's skipped
// accesses on the fast-path rows. Exclusive access required; the returned
// pointer is to a snapshot the next call overwrites.
func (d *Detector) Stats() *detector.Counters {
	d.snap = *d.Detector.Stats()
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		d.snap.Add(&st.skippedOps)
		st.mu.Unlock()
	}
	return &d.snap
}

// Sampled returns the number of data accesses the sampler decided to
// analyze, summed across stripes.
func (d *Detector) Sampled() uint64 {
	n := uint64(0)
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		n += st.sampled
		st.mu.Unlock()
	}
	return n
}

// Skipped returns the number of data accesses the sampler dismissed,
// summed across stripes (including decisions consumed via TrySkip).
func (d *Detector) Skipped() uint64 {
	n := uint64(0)
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		n += st.skipped
		st.mu.Unlock()
	}
	return n
}

// EffectiveRate returns the fraction of data accesses actually sampled.
func (d *Detector) EffectiveRate() float64 {
	sampled, skipped := d.Sampled(), d.Skipped()
	total := sampled + skipped
	if total == 0 {
		return 0
	}
	return float64(sampled) / float64(total)
}

// Stages implements detector.Sharded: the burst-skip stage alone. A
// no-metadata stage would bypass the burst sampler and leave decisions
// unconsumed; TrySkip does consume them. For the same reason the state
// word stays the core's constant always-on word: LITERACE's sampling is
// per-(method, thread), not global, and a front door's unclaimed dismissal
// (pacer.Detector.ProbeUnclaimed) that saw the global flag clear would
// bypass the burst sampler too.
func (d *Detector) Stages() []detector.Stage {
	return []detector.Stage{{Name: detector.StageBurstSkip, Try: d.TrySkip}}
}

// stateLocked returns (method, thread)'s sampler state in stripe st,
// creating it cold (100% rate, full burst) on first use. Callers hold
// st.mu.
func (d *Detector) stateLocked(st *samplerStripe, key methodThread) *samplerState {
	s, ok := st.state[key]
	if !ok {
		// Mix the key into the seed (odd multipliers, xor-fold) so each
		// (method, thread) pair gets its own deterministic reset stream.
		h := uint64(d.opts.Seed)*0x9E3779B97F4A7C15 ^
			(uint64(key.method)+1)*0xBF58476D1CE4E5B9 ^
			(uint64(key.thread)+1)*0x94D049BB133111EB
		s = &samplerState{
			rate:  1.0,
			burst: d.opts.BurstLength,
			rng:   rand.New(rand.NewSource(int64(h))),
		}
		st.state[key] = s
	}
	return s
}

// sampleLocked decides whether to analyze this access of (method, thread),
// advancing the bursty adaptive sampler. Callers hold the key's stripe
// lock.
func (d *Detector) sampleLocked(s *samplerState) bool {
	if s.burst > 0 {
		s.burst--
		if s.burst == 0 {
			// Burst complete: back off the rate and schedule the skip gap
			// that realizes it. Randomizing the reset (unlike the
			// deterministic original) spreads bursts across trials.
			s.rate = max(s.rate/d.opts.Backoff, d.opts.MinRate)
			gap := float64(d.opts.BurstLength) * (1 - s.rate) / s.rate
			if gap > 0 {
				s.skip = 1 + s.rng.Intn(int(2*gap)+1)
			}
		}
		return true
	}
	if s.skip > 0 {
		s.skip--
		return false
	}
	s.burst = d.opts.BurstLength
	return d.sampleLocked(s)
}

// decide takes and records one sampling decision for an access.
func (d *Detector) decide(method uint32, t vclock.Thread, write bool) bool {
	key := methodThread{method, t}
	st := d.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if d.sampleLocked(d.stateLocked(st, key)) {
		st.sampled++
		return true
	}
	st.skipped++
	if write {
		st.skippedOps.WriteFast[detector.NonSampling]++
	} else {
		st.skippedOps.ReadFast[detector.NonSampling]++
	}
	return false
}

// TrySkip is the burst-skip stage: it consumes a pending skip
// decision for (method, t) when one is due, letting the caller dismiss the
// access without routing it through Read/Write. When the sampler would
// instead analyze the access (mid-burst, or a fresh burst is due), the
// state is left untouched and TrySkip reports false — the caller's
// subsequent Read/Write call takes the identical decision itself. Safe to
// call concurrently with operations of other threads; a single thread's
// operations must be serialized by the caller, which is what keeps the
// probe-then-analyze sequence atomic per key.
func (d *Detector) TrySkip(t vclock.Thread, _ event.Var, _ event.Site, method uint32, _ bool) bool {
	key := methodThread{method, t}
	st := d.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	s := d.stateLocked(st, key)
	if s.burst > 0 || s.skip == 0 {
		return false
	}
	s.skip--
	st.skipped++
	// The caller dismissed the access itself, so it owns the operation
	// accounting (the front-end counts dismissals in the thread's counter
	// cell); only the decision tally is recorded here.
	return true
}

// Read samples rd(t, x); sampled reads run the FASTTRACK read analysis.
func (d *Detector) Read(t vclock.Thread, x event.Var, site event.Site, method uint32) {
	if d.decide(method, t, false) {
		d.Detector.Read(t, x, site, method)
	}
}

// Write samples wr(t, x); sampled writes run the FASTTRACK write analysis.
func (d *Detector) Write(t vclock.Thread, x event.Var, site event.Site, method uint32) {
	if d.decide(method, t, true) {
		d.Detector.Write(t, x, site, method)
	}
}

// MetadataWords implements detector.Accounted. LITERACE never
// discards metadata, so this grows with the data the program touches, not
// with the sampling rate.
func (d *Detector) MetadataWords() int {
	n := 0
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.Lock()
		n += len(st.state)
		st.mu.Unlock()
	}
	return d.Detector.MetadataWords() + 5*n
}
