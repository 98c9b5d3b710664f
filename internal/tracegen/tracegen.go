// Package tracegen generates randomized well-formed traces for the
// oracle-checked conformance corpus, and defines the corpus of scenario
// traces ported from the Go race detector's test-suite shapes.
//
// The generator aims at adversarial coverage rather than workload
// realism. It is not a superset of event.Generate: it emits no sampling
// periods (SampleBegin/SampleEnd), which event.Generate's PSample and
// StartSampling options do, and the package imports pacer, so the
// in-package tests of internal/core and internal/event cannot use it.
// Besides plain guarded/unguarded accesses it produces goroutine fork/join churn, RWMutex- and
// WaitGroup-shaped synchronization (the exact event patterns the public
// wrappers in the pacer package emit), channel-shaped volatile handoffs,
// same-epoch access bursts, single-site mirror races (both racing accesses
// share one program site, so the two temporal orders collapse into one
// distinct race), and shard-collision clusters (variables chosen to hash
// into one metadata shard of the sharded backends, serializing their slow
// paths on one stripe lock).
//
// Everything is deterministic in the seed: the conformance tests and the
// `racereplay verify -seed` reproduction path build identical traces from
// identical seeds.
package tracegen

import (
	"math/rand"

	"pacer/internal/event"
	"pacer/internal/vclock"
)

// Config parameterizes Generate. The zero value is not useful; start from
// CorpusConfig or fill every field.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Threads is the maximum number of live threads (≥ 1). Thread 0 is the
	// main thread and never finishes.
	Threads int
	// MaxForks bounds the total number of forks, so fork/join churn can
	// retire many short-lived threads while the live count stays below
	// Threads. 0 means Threads-1 (no churn beyond the initial population).
	MaxForks int
	// Vars, Locks, Volatiles size the plain identifier pools.
	Vars, Locks, Volatiles int
	// RWMutexes, WaitGroups, Channels size the composite-synchronization
	// pools (each composite reserves its own locks/volatiles above the
	// plain pools).
	RWMutexes, WaitGroups, Channels int
	// MirrorVars adds variables whose every access uses one fixed site, so
	// their races are single-site mirror races.
	MirrorVars int
	// ClusterVars adds variables that all hash into a single 64-shard
	// metadata shard (the default shard count of the sharded backends).
	ClusterVars int
	// Steps is the number of generator steps; each step emits zero or more
	// events.
	Steps int
	// PGuarded is the probability that a plain data access runs under the
	// variable's guard lock.
	PGuarded float64
	// PWrite is the probability that a data access is a write.
	PWrite float64
	// PBurst is the probability that an access step repeats its access,
	// exercising the same-epoch fast paths.
	PBurst float64
}

// shardClusterBase is the first identifier considered for the
// shard-collision cluster; it is far above every other variable pool so
// cluster identifiers never alias plain, mirror, or scenario variables.
const shardClusterBase = 1 << 16

// defaultShards mirrors the default shard count of the sharded backends
// (internal/core, internal/fasttrack); fibHash mirrors their Fibonacci
// hash, so a cluster computed here collides there.
const defaultShards = 64

func fibHash(v event.Var) int {
	return int((uint32(v) * 2654435761) >> (32 - 6)) // 64 shards
}

// ShardClusterVars returns n variable identifiers ≥ shardClusterBase that
// all map to one metadata shard under the sharded backends' default
// 64-shard Fibonacci hash.
func ShardClusterVars(n int) []event.Var {
	out := make([]event.Var, 0, n)
	target := fibHash(shardClusterBase)
	for v := event.Var(shardClusterBase); len(out) < n; v++ {
		if fibHash(v) == target {
			out = append(out, v)
		}
	}
	return out
}

// Composite synchronization object state. RWMutex and WaitGroup reproduce
// the event patterns of the public pacer wrappers (sync.go): an RWMutex is
// a writer lock plus two publication volatiles; a WaitGroup is a single
// volatile that Done writes and Wait reads.
type rwState struct {
	m          event.Lock
	wPub, rPub event.Volatile
	writer     vclock.Thread // NoThread when no writer holds it
	readers    map[vclock.Thread]bool
}

type chanState struct {
	vx      event.Volatile
	payload event.Var
	site    event.Site
	full    bool // a send has been published and not yet received
}

type genThread struct {
	started  bool
	finished bool
	joined   bool
	held     []event.Lock
	doneWGs  []int // waitgroups this thread has already Done()d
}

type generator struct {
	cfg     Config
	rng     *rand.Rand
	tr      event.Trace
	threads []genThread
	forks   int
	owner   []vclock.Thread // plain lock owner, NoThread when free
	rws     []rwState
	chans   []chanState
	wgVols  []event.Volatile
	mirror  []event.Var
	cluster []event.Var
}

// Site numbering: every (variable, kind) pair gets its own site except for
// mirror variables, whose accesses all share one site. The bases keep the
// ranges disjoint from each other and from scenario sites.
func plainSite(v event.Var, write bool) event.Site {
	s := event.Site(10_000 + uint32(v)*2)
	if write {
		s++
	}
	return s
}

func mirrorSite(i int) event.Site { return event.Site(500 + i) }

func clusterSite(i int, write bool) event.Site {
	s := event.Site(40_000 + uint32(i)*2)
	if write {
		s++
	}
	return s
}

// Generate produces a random well-formed trace: locks are held by at most
// one thread and released only by their holder, RWMutex writer/reader
// exclusion is respected, threads act only between their fork and their
// finish, and joined threads never act again.
func Generate(cfg Config) event.Trace {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Vars < 1 {
		cfg.Vars = 1
	}
	if cfg.Locks < 1 {
		cfg.Locks = 1
	}
	if cfg.Volatiles < 1 {
		cfg.Volatiles = 1
	}
	if cfg.MaxForks <= 0 {
		cfg.MaxForks = cfg.Threads - 1
	}
	g := &generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.threads = make([]genThread, 1, cfg.Threads)
	g.threads[0].started = true
	g.owner = make([]vclock.Thread, cfg.Locks)
	for i := range g.owner {
		g.owner[i] = vclock.NoThread
	}
	// Composite pools claim identifiers above the plain pools.
	nextLock := event.Lock(cfg.Locks)
	nextVol := event.Volatile(cfg.Volatiles)
	for i := 0; i < cfg.RWMutexes; i++ {
		g.rws = append(g.rws, rwState{
			m: nextLock, wPub: nextVol, rPub: nextVol + 1,
			writer: vclock.NoThread, readers: map[vclock.Thread]bool{},
		})
		nextLock++
		nextVol += 2
	}
	for i := 0; i < cfg.WaitGroups; i++ {
		g.wgVols = append(g.wgVols, nextVol)
		nextVol++
	}
	for i := 0; i < cfg.Channels; i++ {
		g.chans = append(g.chans, chanState{
			vx:      nextVol,
			payload: event.Var(8192 + i),
			site:    event.Site(30_000 + uint32(i)),
		})
		nextVol++
	}
	for i := 0; i < cfg.MirrorVars; i++ {
		g.mirror = append(g.mirror, event.Var(4096+i))
	}
	if cfg.ClusterVars > 0 {
		g.cluster = ShardClusterVars(cfg.ClusterVars)
	}

	for step := 0; step < cfg.Steps; step++ {
		g.step()
	}
	g.unwind()
	return g.tr
}

func (g *generator) emit(e event.Event) { g.tr = append(g.tr, e) }

func (g *generator) runnable() []vclock.Thread {
	var rs []vclock.Thread
	for i := range g.threads {
		if g.threads[i].started && !g.threads[i].finished {
			rs = append(rs, vclock.Thread(i))
		}
	}
	return rs
}

func (g *generator) liveCount() int { return len(g.runnable()) }

// access emits one read or write of v at the given site.
func (g *generator) access(t vclock.Thread, v event.Var, site func(write bool) event.Site) {
	write := g.rng.Float64() < g.cfg.PWrite
	kind := event.Read
	if write {
		kind = event.Write
	}
	g.emit(event.Event{
		Kind: kind, Thread: t, Target: uint32(v),
		Site: site(write), Method: uint32(v) % 7,
	})
}

// step emits zero or more events for one randomly chosen runnable thread.
func (g *generator) step() {
	rs := g.runnable()
	t := rs[g.rng.Intn(len(rs))]
	st := &g.threads[t]
	repeat := 1
	if g.rng.Float64() < g.cfg.PBurst {
		repeat = 2 + g.rng.Intn(3)
	}
	switch g.rng.Intn(16) {
	case 0, 1, 2, 3: // plain access, possibly guarded
		v := event.Var(g.rng.Intn(g.cfg.Vars))
		if g.rng.Float64() < g.cfg.PGuarded {
			guard := event.Lock(uint32(v) % uint32(g.cfg.Locks))
			if g.owner[guard] != vclock.NoThread {
				return
			}
			g.emit(event.Event{Kind: event.Acquire, Thread: t, Target: uint32(guard)})
			g.owner[guard] = t
			for i := 0; i < repeat; i++ {
				g.access(t, v, func(w bool) event.Site { return plainSite(v, w) })
			}
			g.emit(event.Event{Kind: event.Release, Thread: t, Target: uint32(guard)})
			g.owner[guard] = vclock.NoThread
		} else {
			for i := 0; i < repeat; i++ {
				g.access(t, v, func(w bool) event.Site { return plainSite(v, w) })
			}
		}
	case 4: // mirror-variable access: one fixed site for reads and writes
		if len(g.mirror) == 0 {
			return
		}
		i := g.rng.Intn(len(g.mirror))
		v := g.mirror[i]
		for k := 0; k < repeat; k++ {
			g.access(t, v, func(bool) event.Site { return mirrorSite(i) })
		}
	case 5: // shard-collision cluster access
		if len(g.cluster) == 0 {
			return
		}
		i := g.rng.Intn(len(g.cluster))
		v := g.cluster[i]
		for k := 0; k < repeat; k++ {
			g.access(t, v, func(w bool) event.Site { return clusterSite(i, w) })
		}
	case 6: // acquire a free plain lock
		m := event.Lock(g.rng.Intn(g.cfg.Locks))
		if g.owner[m] != vclock.NoThread {
			return
		}
		g.emit(event.Event{Kind: event.Acquire, Thread: t, Target: uint32(m)})
		g.owner[m] = t
		st.held = append(st.held, m)
	case 7: // release a held plain lock
		if len(st.held) == 0 {
			return
		}
		i := g.rng.Intn(len(st.held))
		m := st.held[i]
		st.held = append(st.held[:i], st.held[i+1:]...)
		g.owner[m] = vclock.NoThread
		g.emit(event.Event{Kind: event.Release, Thread: t, Target: uint32(m)})
	case 8: // plain volatile access
		vx := event.Volatile(g.rng.Intn(g.cfg.Volatiles))
		k := event.VolRead
		if g.rng.Float64() < g.cfg.PWrite {
			k = event.VolWrite
		}
		g.emit(event.Event{Kind: k, Thread: t, Target: uint32(vx)})
	case 9: // RWMutex write-lock critical section (pattern of pacer.RWMutex)
		if len(g.rws) == 0 {
			return
		}
		i := g.rng.Intn(len(g.rws))
		rw := &g.rws[i]
		if rw.writer != vclock.NoThread || len(rw.readers) > 0 {
			return
		}
		rw.writer = t
		g.emit(event.Event{Kind: event.Acquire, Thread: t, Target: uint32(rw.m)})
		g.emit(event.Event{Kind: event.VolRead, Thread: t, Target: uint32(rw.rPub)})
		g.emit(event.Event{Kind: event.VolRead, Thread: t, Target: uint32(rw.wPub)})
		v := event.Var(g.rng.Intn(g.cfg.Vars))
		g.emit(event.Event{Kind: event.Write, Thread: t, Target: uint32(v), Site: plainSite(v, true), Method: uint32(v) % 7})
		g.emit(event.Event{Kind: event.VolWrite, Thread: t, Target: uint32(rw.wPub)})
		g.emit(event.Event{Kind: event.Release, Thread: t, Target: uint32(rw.m)})
		rw.writer = vclock.NoThread
	case 10: // RWMutex read-lock critical section
		if len(g.rws) == 0 {
			return
		}
		i := g.rng.Intn(len(g.rws))
		rw := &g.rws[i]
		if rw.writer != vclock.NoThread || rw.readers[t] {
			return
		}
		rw.readers[t] = true
		g.emit(event.Event{Kind: event.VolRead, Thread: t, Target: uint32(rw.wPub)})
		v := event.Var(g.rng.Intn(g.cfg.Vars))
		g.emit(event.Event{Kind: event.Read, Thread: t, Target: uint32(v), Site: plainSite(v, false), Method: uint32(v) % 7})
		g.emit(event.Event{Kind: event.VolWrite, Thread: t, Target: uint32(rw.rPub)})
		delete(rw.readers, t)
	case 11: // WaitGroup: workers Done once, thread 0 Waits
		if len(g.wgVols) == 0 {
			return
		}
		i := g.rng.Intn(len(g.wgVols))
		if t == 0 {
			g.emit(event.Event{Kind: event.VolRead, Thread: t, Target: uint32(g.wgVols[i])})
			return
		}
		for _, d := range st.doneWGs {
			if d == i {
				return
			}
		}
		st.doneWGs = append(st.doneWGs, i)
		g.emit(event.Event{Kind: event.VolWrite, Thread: t, Target: uint32(g.wgVols[i])})
	case 12: // channel send: publish the payload through the volatile
		if len(g.chans) == 0 {
			return
		}
		i := g.rng.Intn(len(g.chans))
		ch := &g.chans[i]
		if ch.full {
			return
		}
		ch.full = true
		g.emit(event.Event{Kind: event.Write, Thread: t, Target: uint32(ch.payload), Site: ch.site})
		g.emit(event.Event{Kind: event.VolWrite, Thread: t, Target: uint32(ch.vx)})
	case 13: // channel receive: consume the volatile, read the payload
		if len(g.chans) == 0 {
			return
		}
		i := g.rng.Intn(len(g.chans))
		ch := &g.chans[i]
		if !ch.full {
			return
		}
		ch.full = false
		g.emit(event.Event{Kind: event.VolRead, Thread: t, Target: uint32(ch.vx)})
		g.emit(event.Event{Kind: event.Read, Thread: t, Target: uint32(ch.payload), Site: ch.site + 1})
	case 14: // fork a new thread (fork/join churn up to MaxForks)
		if g.forks >= g.cfg.MaxForks || g.liveCount() >= g.cfg.Threads {
			return
		}
		u := vclock.Thread(len(g.threads))
		g.threads = append(g.threads, genThread{started: true})
		g.forks++
		g.emit(event.Event{Kind: event.Fork, Thread: t, Target: uint32(u)})
	case 15: // finish this thread, or join a finished one
		if g.rng.Intn(2) == 0 {
			if t == 0 || len(st.held) > 0 {
				return
			}
			st.finished = true
			return
		}
		u := g.pickFinishedUnjoined(t)
		if u == vclock.NoThread {
			return
		}
		g.threads[u].joined = true
		g.emit(event.Event{Kind: event.Join, Thread: t, Target: uint32(u)})
	}
}

func (g *generator) pickFinishedUnjoined(self vclock.Thread) vclock.Thread {
	var cands []vclock.Thread
	for i := range g.threads {
		if vclock.Thread(i) != self && g.threads[i].finished && !g.threads[i].joined {
			cands = append(cands, vclock.Thread(i))
		}
	}
	if len(cands) == 0 {
		return vclock.NoThread
	}
	return cands[g.rng.Intn(len(cands))]
}

// unwind releases every held lock so a generated trace never ends inside a
// critical section (some detectors account held-lock metadata differently;
// a clean tail keeps traces comparable).
func (g *generator) unwind() {
	for i := range g.threads {
		st := &g.threads[i]
		for len(st.held) > 0 {
			m := st.held[len(st.held)-1]
			st.held = st.held[:len(st.held)-1]
			g.owner[m] = vclock.NoThread
			g.emit(event.Event{Kind: event.Release, Thread: vclock.Thread(i), Target: uint32(m)})
		}
	}
}

// CorpusConfig returns the deterministic generator configuration the
// oracle conformance suite uses for seed i. The shapes rotate so the ≥300
// generated traces cover plain racing, heavy synchronization, fork/join
// churn, mirror races, and shard-collision clusters; `racereplay verify
// -seed i` rebuilds the identical trace.
func CorpusConfig(i int64) Config {
	cfg := Config{
		Seed:      i + 1, // seed 0 would alias seed 1 under rand.NewSource conventions elsewhere
		Threads:   3 + int(i%5),
		Vars:      4 + int(i%9),
		Locks:     1 + int(i%4),
		Volatiles: 1 + int(i%3),
		Steps:     120 + int(i*37%380),
		PGuarded:  []float64{0.0, 0.25, 0.5, 0.8, 1.0}[i%5],
		PWrite:    0.4,
		PBurst:    0.2,
	}
	switch i % 4 {
	case 0: // adversarial: mirrors + clusters, little guarding
		cfg.MirrorVars = 3
		cfg.ClusterVars = 4
	case 1: // composite-heavy: rwmutex/waitgroup/channel shapes
		cfg.RWMutexes = 2
		cfg.WaitGroups = 2
		cfg.Channels = 2
	case 2: // churn: many short-lived threads
		cfg.MaxForks = cfg.Threads * 3
		cfg.MirrorVars = 1
	case 3: // everything at once
		cfg.RWMutexes = 1
		cfg.WaitGroups = 1
		cfg.Channels = 1
		cfg.MirrorVars = 2
		cfg.ClusterVars = 3
		cfg.MaxForks = cfg.Threads * 2
	}
	return cfg
}
