package rt

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"pacer"
	"pacer/internal/event"
	"pacer/internal/fleet"
)

// The process-global detector and the shadow state feeding it. Everything
// initializes lazily on the first hook, so instrumented package-level
// initializers work without ordering constraints.

// syncKind tags what a shadow-mapped sync object is, which decides the
// detector identifiers allocated for it.
type syncKind uint8

const (
	kindMutex syncKind = iota
	kindRWMutex
	kindWaitGroup
	kindChan
	kindAtomic
	kindOnce
)

// syncObj is one shadow-mapped synchronization object. Depending on kind:
// mutex/rwmutex hold lock; rwmutex additionally v1 (writers publish) and
// v2 (readers publish); waitgroup and atomic hold v1; channels hold v1
// (senders publish) and v2 (receivers publish).
type syncObj struct {
	kind   syncKind
	lock   pacer.LockID
	v1, v2 pacer.VolatileID
}

// runtimeState is the mounted front door.
type runtimeState struct {
	det      *pacer.Detector
	agg      *pacer.Aggregator
	reporter *fleet.Reporter
	instance string

	vars  *varShadow
	syncs *ShadowMap[syncObj]

	rep *raceLog
}

var (
	initOnce sync.Once
	state    *runtimeState
)

// envStr returns the environment value or a default.
func envStr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func envFloat(key string, def float64) float64 {
	if v := os.Getenv(key); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
		fmt.Fprintf(os.Stderr, "pacer/rt: ignoring malformed %s=%q\n", key, v)
	}
	return def
}

func envInt(key string, def int) int {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
		fmt.Fprintf(os.Stderr, "pacer/rt: ignoring malformed %s=%q\n", key, v)
	}
	return def
}

func envBool(key string) bool {
	switch os.Getenv(key) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// Init mounts the process-global detector from the environment. It is
// idempotent and implied by every hook; call it explicitly only to force
// configuration errors to surface early.
//
// Configuration (all optional):
//
//	PACER_RATE        sampling rate in [0,1]           (default 1.0)
//	PACER_ALGO        detection backend                (default "pacer")
//	PACER_SEED        period-roll seed                 (default 1)
//	PACER_PERIOD      operations per sampling period   (default 4096)
//	PACER_SHARDS      variable-metadata shards         (default 64)
//	PACER_OUT         path for JSON-lines race reports (default none)
//	PACER_QUIET       1 = no stderr race reports       (default off)
//	PACER_FLEET       pacerd base URL to push reports to
//	PACER_FLEET_TOKEN bearer token for PACER_FLEET
//	PACER_INSTANCE    fleet instance name (default hostname-pid)
func Init() { initOnce.Do(initState) }

func initState() {
	s := &runtimeState{
		vars:  newVarShadow(),
		syncs: NewShadowMap[syncObj](),
	}
	s.agg = pacer.NewAggregator()
	host, _ := os.Hostname()
	if host == "" {
		host = "unknown"
	}
	s.instance = envStr("PACER_INSTANCE", fmt.Sprintf("%s-%d", host, os.Getpid()))
	s.rep = newRaceLog(os.Getenv("PACER_OUT"), envBool("PACER_QUIET"))
	aggReport := s.agg.Reporter(s.instance)
	s.det = pacer.New(pacer.Options{
		Algorithm:    envStr("PACER_ALGO", "pacer"),
		SamplingRate: envFloat("PACER_RATE", 1.0),
		Seed:         int64(envInt("PACER_SEED", 1)),
		PeriodOps:    envInt("PACER_PERIOD", 0),
		Shards:       envInt("PACER_SHARDS", 0),
		OnRace: func(r pacer.Race) {
			aggReport(r)
			s.rep.report(s, r)
		},
	})
	s.det.MountFrontDoor(s)
	if url := os.Getenv("PACER_FLEET"); url != "" {
		rep, err := fleet.NewReporter(s.agg, fleet.ReporterOptions{
			Collector: url,
			Instance:  s.instance,
			Interval:  2 * time.Second,
			AuthToken: os.Getenv("PACER_FLEET_TOKEN"),
			Stats:     func() pacer.Stats { return s.det.Stats() },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pacer/rt: fleet reporter disabled: %v\n", err)
		} else {
			s.reporter = rep
		}
	}
	state = s
}

// D returns the process-global detector, mounting it on first use.
// Exported for tests and custom integrations.
func D() *pacer.Detector {
	Init()
	return state.det
}

// Aggregator returns the process-global triage aggregator.
func Aggregator() *pacer.Aggregator {
	Init()
	return state.agg
}

// FrontDoorStats implements pacer.FrontDoorAccounted: the data shadow's
// counters (sync-object resolution is not counted, matching the Stats
// contract's "variable identifiers"). Stats calls it on the goroutine
// calling Stats, so when that goroutine is an instrumented one its tally
// is published here first, and its own hooks are all in the snapshot. A
// goroutine the shim has never seen is not registered by the call.
func (s *runtimeState) FrontDoorStats() pacer.FrontDoorStats {
	if g := goroutines.get(goid()); g != nil {
		g.flush()
	}
	return s.vars.stats()
}

// syncCacheWays is the number of sync objects each G caches.
const (
	syncCacheBits = 3
	syncCacheWays = 1 << syncCacheBits
)

// syncCache is a goroutine's direct-mapped cache of resolved sync
// objects, indexed by a hash of the address. Only the goroutine owning
// the G reads or writes it. Sync mappings are never evicted, so a cached
// entry cannot go stale.
type syncCache [syncCacheWays]struct {
	addr uintptr
	obj  *syncObj
}

// syncWay is addr's way in a syncCache. Sync objects are often 16- or
// 32-byte aligned (channels, mutexes inside structs), so the address is
// hashed rather than masked.
func syncWay(addr uintptr) uintptr {
	return uintptr(uint64(addr) * fib64 >> (64 - syncCacheBits))
}

// resolveSync maps a sync object's address to its detector identifiers
// for goroutine g: a hit in g's cache touches no shared memory.
func resolveSync(g *G, addr uintptr, kind syncKind) *syncObj {
	c := &g.syncs[syncWay(addr)]
	if c.addr != addr || c.obj == nil {
		c.addr, c.obj = addr, lookupSync(addr, kind)
	}
	return c.obj
}

// lookupSync finds or registers addr's sync object in the shared map.
func lookupSync(addr uintptr, kind syncKind) *syncObj {
	if o := state.syncs.Get(addr); o != nil {
		return o
	}
	o, _ := state.syncs.SetIfAbsent(addr, func() *syncObj {
		o := &syncObj{kind: kind}
		d := state.det
		switch kind {
		case kindMutex:
			o.lock = d.NewLockID()
		case kindRWMutex:
			o.lock = d.NewLockID()
			o.v1 = d.NewVolatileID()
			o.v2 = d.NewVolatileID()
		case kindWaitGroup, kindAtomic, kindOnce:
			o.v1 = d.NewVolatileID()
		case kindChan:
			o.v1 = d.NewVolatileID()
			o.v2 = d.NewVolatileID()
		}
		return o
	})
	return o
}

// syncOp hands goroutine g's sync op of kind on target to the detector.
// One the detector proves a no-op (pacer.Detector.DismissSync) ends here,
// counted in g's tally; any other publishes the tally first and goes
// straight to the detector's locked path (SyncLocked), which does not
// probe it again.
func syncOp(g *G, kind event.Kind, target uint32) {
	e := pacer.Event{Kind: kind, Thread: g.t, Target: target}
	d := state.det
	if !d.DismissSync(e) {
		g.flush()
		d.SyncLocked(e)
		return
	}
	switch kind {
	case event.Release:
		g.tally.Copies++
	case event.VolWrite:
		g.tally.VolCopies++
	default:
		g.tally.Joins++
	}
	g.counted()
}

// FreeVar clears a data address's shadow entry: a later access to
// the same (reused) address registers as a fresh variable instead of
// inheriting the dead one's metadata. Instrumentation does not emit this
// automatically (Go frees memory invisibly); long-running integrations
// can call it where their own free lists or pools recycle memory.
func FreeVar(p unsafe.Pointer) {
	Init()
	state.vars.free(uintptr(p))
}

// --- data access hooks (emitted by pacergo) ---
//
// Every hook that needs the caller's identity takes the calling frame's
// Slot first and resolves it through Slot.G. A data variable is keyed by
// its start address alone; the size pacergo passes is not used.

// R observes the calling goroutine reading size bytes at p, as the
// instrumented source position site (from Site). Outside sampling
// periods, an access to an address no access has claimed ends at the
// shadow lookup (varShadow.resolve).
func R(h *Slot, p unsafe.Pointer, size uintptr, site int) {
	Init()
	g := h.G()
	if v, ok := state.vars.resolve(g, uintptr(p), state.det, false); ok {
		noteCapture(site)
		state.det.Read(g.t, v, pacer.SiteID(site))
	}
}

// W observes the calling goroutine writing size bytes at p.
func W(h *Slot, p unsafe.Pointer, size uintptr, site int) {
	Init()
	g := h.G()
	if v, ok := state.vars.resolve(g, uintptr(p), state.det, true); ok {
		noteCapture(site)
		state.det.Write(g.t, v, pacer.SiteID(site))
	}
}

// --- sync.Mutex / sync.RWMutex hooks ---

// LockAcquire observes mu.Lock() returning; call it after the real lock
// is held.
func LockAcquire(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	syncOp(g, event.Acquire, uint32(resolveSync(g, uintptr(p), kindMutex).lock))
}

// LockRelease observes mu.Unlock(); call it before the real unlock.
func LockRelease(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	syncOp(g, event.Release, uint32(resolveSync(g, uintptr(p), kindMutex).lock))
}

// RWLock observes rw.Lock() returning. The model mirrors pacer.RWMutex:
// writers hold the lock and consume both the previous writer's and every
// reader's publication.
func RWLock(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	o := resolveSync(g, uintptr(p), kindRWMutex)
	syncOp(g, event.Acquire, uint32(o.lock))
	syncOp(g, event.VolRead, uint32(o.v2)) // readers' publications
	syncOp(g, event.VolRead, uint32(o.v1)) // previous writer's
}

// RWUnlock observes rw.Unlock(); call before the real unlock.
func RWUnlock(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	o := resolveSync(g, uintptr(p), kindRWMutex)
	syncOp(g, event.VolWrite, uint32(o.v1))
	syncOp(g, event.Release, uint32(o.lock))
}

// RWRLock observes rw.RLock() returning.
func RWRLock(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	o := resolveSync(g, uintptr(p), kindRWMutex)
	syncOp(g, event.VolRead, uint32(o.v1))
}

// RWRUnlock observes rw.RUnlock(); call before the real unlock.
func RWRUnlock(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	o := resolveSync(g, uintptr(p), kindRWMutex)
	syncOp(g, event.VolWrite, uint32(o.v2))
}

// --- sync.WaitGroup hooks ---

// WGDone observes wg.Done(), publishing the worker's history; call before
// the real Done.
func WGDone(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	syncOp(g, event.VolWrite, uint32(resolveSync(g, uintptr(p), kindWaitGroup).v1))
}

// WGWait observes wg.Wait() returning, receiving every Done-er's history;
// call after the real Wait.
func WGWait(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	syncOp(g, event.VolRead, uint32(resolveSync(g, uintptr(p), kindWaitGroup).v1))
}

// --- channel hooks ---

// chanObj resolves a channel value's identity (the runtime channel
// object, not the variable holding it). Nil channels resolve to nil.
func chanObj(g *G, ch any) *syncObj {
	if ch == nil {
		return nil
	}
	rv := reflect.ValueOf(ch)
	if rv.Kind() != reflect.Chan || rv.IsNil() {
		return nil
	}
	return resolveSync(g, rv.Pointer(), kindChan)
}

// ChanSend observes `ch <- v` about to run: the sender publishes its
// history. Call before the real send.
func ChanSend(h *Slot, ch any) {
	Init()
	g := h.G()
	if o := chanObj(g, ch); o != nil {
		syncOp(g, event.VolWrite, uint32(o.v1))
	}
}

// ChanSendDone observes a send completing: for unbuffered channels the
// rendezvous also hands the receiver's prior history to the sender. Call
// after the real send.
func ChanSendDone(h *Slot, ch any) {
	Init()
	g := h.G()
	if o := chanObj(g, ch); o != nil {
		syncOp(g, event.VolRead, uint32(o.v2))
	}
}

// ChanRecvPre observes a receive about to block: the receiver publishes
// its prior history for the rendezvous edge. Call before the real
// receive.
func ChanRecvPre(h *Slot, ch any) {
	Init()
	g := h.G()
	if o := chanObj(g, ch); o != nil {
		syncOp(g, event.VolWrite, uint32(o.v2))
	}
}

// ChanRecv observes a completed receive: the receiver acquires the
// senders' published history. Call after the real receive.
func ChanRecv(h *Slot, ch any) {
	Init()
	g := h.G()
	if o := chanObj(g, ch); o != nil {
		syncOp(g, event.VolRead, uint32(o.v1))
	}
}

// ChanClose observes close(ch): closing publishes like a send. Call
// before the real close.
func ChanClose(h *Slot, ch any) {
	Init()
	g := h.G()
	if o := chanObj(g, ch); o != nil {
		syncOp(g, event.VolWrite, uint32(o.v1))
	}
}

// ChanRange observes one delivery of a range-over-channel loop: the body
// acquires the senders' history and republishes the receiver's. Emitted
// at the top of the loop body.
func ChanRange(h *Slot, ch any) {
	Init()
	g := h.G()
	if o := chanObj(g, ch); o != nil {
		syncOp(g, event.VolRead, uint32(o.v1))
		syncOp(g, event.VolWrite, uint32(o.v2))
	}
}

// --- sync.Once hook ---

// OnceDo performs o.Do(f) with the Once modelled as synchronization:
// the goroutine that wins the Once publishes its history when f returns
// (a release on first execution), and every caller — the executor
// included — acquires that publication when Do returns. That is exactly
// the guarantee sync.Once documents: f's completion happens before any
// Do return, so latecomers that find the Once already done are still
// ordered after everything f wrote.
//
// pacergo rewrites `once.Do(f)` to `rt.OnceDo(&slot, &once, f)`; the hook runs
// the real Do itself so the release lands inside the Once's critical
// section, before any other caller can observe completion.
func OnceDo(h *Slot, o *sync.Once, f func()) {
	Init()
	g := h.G()
	so := resolveSync(g, uintptr(unsafe.Pointer(o)), kindOnce)
	o.Do(func() {
		f()
		syncOp(g, event.VolWrite, uint32(so.v1))
	})
	syncOp(g, event.VolRead, uint32(so.v1))
}

// --- sync/atomic hooks ---

// AtomicLoad observes an atomic load from p; call after the real load.
func AtomicLoad(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	syncOp(g, event.VolRead, uint32(resolveSync(g, uintptr(p), kindAtomic).v1))
}

// AtomicStore observes an atomic store to p; call before the real store.
func AtomicStore(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	syncOp(g, event.VolWrite, uint32(resolveSync(g, uintptr(p), kindAtomic).v1))
}

// AtomicRMW observes an atomic read-modify-write (Add, Swap,
// CompareAndSwap) on p: it both consumes and republishes the volatile's
// history. Call after the real operation.
func AtomicRMW(h *Slot, p unsafe.Pointer) {
	Init()
	g := h.G()
	o := resolveSync(g, uintptr(p), kindAtomic)
	syncOp(g, event.VolRead, uint32(o.v1))
	syncOp(g, event.VolWrite, uint32(o.v1))
}

// --- deferred sync helpers ---
//
// pacergo rewrites `defer mu.Unlock()` (and friends) to `defer
// rt.DeferUnlock(slot.G(), &mu)`: the helper performs the real operation
// with the hook in the right order, and taking the pointer at defer time
// preserves the original receiver-evaluation semantics. The helpers take
// the resolved *G rather than the frame's Slot, so a defer inside a loop
// (whose arguments the compiler stores on the heap) never moves the Slot
// off the stack.

// DeferUnlock releases mu with the unlock hook ordered before it.
func DeferUnlock(g *G, mu *sync.Mutex) { LockRelease(&Slot{g: g}, unsafe.Pointer(mu)); mu.Unlock() }

// DeferRWUnlock releases rw's write lock with the hook ordered before it.
func DeferRWUnlock(g *G, rw *sync.RWMutex) { RWUnlock(&Slot{g: g}, unsafe.Pointer(rw)); rw.Unlock() }

// DeferRWRUnlock releases rw's read lock with the hook ordered before it.
func DeferRWRUnlock(g *G, rw *sync.RWMutex) { RWRUnlock(&Slot{g: g}, unsafe.Pointer(rw)); rw.RUnlock() }

// DeferWGDone counts wg down with the publication hook ordered before it.
func DeferWGDone(g *G, wg *sync.WaitGroup) { WGDone(&Slot{g: g}, unsafe.Pointer(wg)); wg.Done() }

// DeferWGWait waits on wg with the acquisition hook ordered after it.
func DeferWGWait(g *G, wg *sync.WaitGroup) { wg.Wait(); WGWait(&Slot{g: g}, unsafe.Pointer(wg)) }

// DeferOnceDo is OnceDo for `defer once.Do(f)`.
func DeferOnceDo(g *G, o *sync.Once, f func()) { OnceDo(&Slot{g: g}, o, f) }

// Flush drains buffered reporting: the JSON report stream is synced and,
// when a fleet collector is configured, the reporter pushes its final
// snapshot and shuts down. pacergo injects `defer rt.Flush()` at the top
// of instrumented main functions.
func Flush() {
	Init()
	if state == nil {
		return // Init panicked, and that panic is the one to report
	}
	if state.reporter != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		state.reporter.Close(ctx)
		cancel()
		state.reporter = nil
	}
	state.rep.sync()
}

// Races returns the number of distinct races reported so far in this
// process.
func Races() int {
	Init()
	return state.agg.Distinct()
}
