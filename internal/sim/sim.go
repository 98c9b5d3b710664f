// Package sim is the program-runtime substrate standing in for the paper's
// Jikes RVM: a deterministic simulator of multithreaded programs with
// locks, volatiles, fork/join, an allocating heap, and instrumentation
// hooks feeding any race detector.
//
// Programs are written as ordinary Go functions over a *Thread handle;
// every operation is a yield point. A single scheduler goroutine picks the
// next runnable thread with a seeded PRNG, so trials are reproducible and
// the observer effect (Section 5.1) is modelled by varying the seed.
//
// The simulator also reproduces the paper's sampling infrastructure
// (Section 4): sampling is toggled at garbage collections, collections are
// triggered by allocation — including the metadata the detector allocates
// while sampling, which is what biases naive sampling — and the controller
// corrects for that bias by measuring program work in synchronization
// operations.
package sim

import (
	"math/rand"

	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Var, Lock, Volatile, and Site re-export the event identifier types for
// workload code.
type (
	// Var identifies a shared data variable.
	Var = event.Var
	// Lock identifies a lock.
	Lock = event.Lock
	// Volatile identifies a volatile variable.
	Volatile = event.Volatile
	// Site identifies a static program location.
	Site = event.Site
)

// ThreadFunc is the body of a simulated thread.
type ThreadFunc func(t *Thread)

// Program is a simulated multithreaded program.
type Program struct {
	// Name labels the program in reports.
	Name string
	// Main is the body of thread 0.
	Main ThreadFunc
}

// Config controls one simulation trial.
type Config struct {
	// Seed drives the scheduler and all per-thread PRNGs.
	Seed int64
	// Detector observes the execution; nil runs the program uninstrumented
	// (the "Base" configuration of Figures 7-10).
	Detector detector.Detector
	// InstrumentAccesses false models the "OM + sync ops" configuration of
	// Figure 7: reads and writes are not instrumented at all (the detector
	// never sees them and no fast-path check cost accrues).
	InstrumentAccesses bool
	// SampleTarget is the specified sampling rate r for detectors
	// implementing detector.Sampler. Zero never samples; one always
	// samples.
	SampleTarget float64
	// NurseryWords is the allocation budget between collections
	// (the paper's 32 MB nursery). Defaults to 32768.
	NurseryWords int
	// FullHeapEvery makes every n-th collection a full-heap collection, at
	// which a memory sample is recorded when MemTimeline is set. Defaults
	// to 4.
	FullHeapEvery int
	// MemTimeline records live-memory samples at full-heap collections
	// (Figure 10).
	MemTimeline bool
	// Cost is the instrumentation cost model; zero value uses defaults.
	Cost CostModel
	// MaxEvents aborts runaway programs (default 50M).
	MaxEvents uint64
}

func (c *Config) fill() {
	if c.NurseryWords == 0 {
		c.NurseryWords = 32768
	}
	if c.FullHeapEvery == 0 {
		c.FullHeapEvery = 4
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 50_000_000
	}
	c.Cost.fill()
}

// opKind enumerates thread yield points.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opLock
	opUnlock
	opVolRead
	opVolWrite
	opFork
	opJoin
	opAlloc
	opWork
	opWait
	opNotify
	opNotifyAll
	opExit
)

type op struct {
	kind     opKind
	target   uint32
	aux      uint32 // wait: the monitor lock
	site     Site
	method   uint32
	n        int        // alloc words / work units
	fn       ThreadFunc // fork body
	fromWait bool       // lock op is a Wait's re-acquisition
}

// Thread is the handle a simulated thread's body uses to perform
// operations. All methods are yield points; the scheduler decides when the
// operation takes effect.
type Thread struct {
	id       vclock.Thread
	rng      *rand.Rand
	reqs     chan op
	grants   chan struct{}
	pending  *op // next operation, owned by the scheduler
	done     bool
	forkID   vclock.Thread // result slot for Fork
	waitLock Lock          // monitor to re-acquire after a Wait
}

// ID returns the thread's identifier.
func (t *Thread) ID() vclock.Thread { return t.id }

// Rand returns the thread's deterministic PRNG.
func (t *Thread) Rand() *rand.Rand { return t.rng }

func (t *Thread) yield(o op) {
	t.reqs <- o
	<-t.grants
}

// Read performs rd(t, x) at the given site within the given method.
func (t *Thread) Read(x Var, site Site, method uint32) {
	t.yield(op{kind: opRead, target: uint32(x), site: site, method: method})
}

// Write performs wr(t, x).
func (t *Thread) Write(x Var, site Site, method uint32) {
	t.yield(op{kind: opWrite, target: uint32(x), site: site, method: method})
}

// Lock acquires m, blocking while another thread holds it.
func (t *Thread) Lock(m Lock) { t.yield(op{kind: opLock, target: uint32(m)}) }

// Unlock releases m, which the thread must hold.
func (t *Thread) Unlock(m Lock) { t.yield(op{kind: opUnlock, target: uint32(m)}) }

// VolRead reads the volatile vx.
func (t *Thread) VolRead(vx Volatile) { t.yield(op{kind: opVolRead, target: uint32(vx)}) }

// VolWrite writes the volatile vx.
func (t *Thread) VolWrite(vx Volatile) { t.yield(op{kind: opVolWrite, target: uint32(vx)}) }

// Alloc allocates words of program heap, advancing the collector.
func (t *Thread) Alloc(words int) { t.yield(op{kind: opAlloc, n: words}) }

// Work performs n units of uninstrumented computation.
func (t *Thread) Work(n int) { t.yield(op{kind: opWork, n: n}) }

// Fork starts a new simulated thread executing fn and returns its
// identifier.
func (t *Thread) Fork(fn ThreadFunc) vclock.Thread {
	t.forkID = vclock.NoThread
	t.yield(op{kind: opFork, fn: fn})
	return t.forkID
}

// Join blocks until thread u terminates.
func (t *Thread) Join(u vclock.Thread) { t.yield(op{kind: opJoin, target: uint32(u)}) }

// Sim runs programs. Create one per trial with Run.
type Sim struct {
	cfg       Config
	rng       *rand.Rand
	threads   []*Thread
	lockOwner map[Lock]vclock.Thread
	result    Result
	sampler   detector.Sampler
	acct      detector.Accounted
	prevStats detector.Counters

	// Condition variable wait queues.
	condWaiters map[Cond][]*Thread

	// GC / sampling controller state.
	allocSinceGC  int
	collections   int
	sampling      bool
	syncSampling  uint64 // sync ops observed during sampling periods
	syncTotal     uint64
	periodSync    uint64 // sync ops in the current inter-GC period
	sampWork      float64
	sampPeriods   int
	nonsampWork   float64
	nonsampP      int
	programAllocd uint64
}
