// Package rt is the runtime shim behind pacergo-instrumented programs:
// the layer that turns real program state — memory addresses, goroutines,
// sync primitives, channels — into the identifier vocabulary the pacer
// detector ingests (VarID, ThreadID, LockID, VolatileID, SiteID).
//
// Instrumented code calls the hook functions in this package (R, W,
// GoSpawn/GoStart/GoExit, LockAcquire/LockRelease, ChanSend/ChanRecv, …);
// nothing here is meant to be called by hand except in tests and custom
// integrations. The process-global detector is mounted lazily from the
// environment (PACER_RATE, PACER_ALGO, …; see Init) so an instrumented
// binary needs no setup code beyond what pacergo injects.
//
// Data addresses resolve through direct-mapped shadow pages, the nearest
// Go gets to PACER's metadata at a fixed place in the object. Each 4 KiB
// page of program memory that a hook touches gets one shadowPage: 512
// words, one per 8-byte-aligned address, each holding that address's
// VarID+1 (0 = unclaimed). A word is read with an atomic load and
// claimed with one CAS, so there is exactly one VarID per start address
// and no per-variable heap entry. Only an access that goes on to the
// detector claims a word: outside a sampling period, an access that
// reads 0 is dismissed on that load (pacer.Detector.DismissUnclaimed),
// since an address without a VarID holds no metadata. So, as in PACER,
// a variable touched only outside sampling periods costs no identifier.
// Every goroutine's G keeps a 16-way direct-mapped cache of page
// pointers, so a hit is a compare, an index and a load; a cache miss
// finds the page in a ShadowMap keyed by page number. A start that is
// not 8-byte aligned (a byte, or an int32 at offset 4) keeps a ShadowMap
// entry of its own.
//
// Hooks are counted in the goroutine that makes them. Each G keeps a
// tally (pacer.Tally) in plain memory only its goroutine touches: the
// accesses it dismissed unclaimed, the sync ops the detector proved
// no-ops (pacer.Detector.DismissSync), and its shadow hits. The G
// publishes the whole tally with one pacer.Detector.Count when it holds
// 64 counts, before any hook it passes on to the detector, at GoExit, and
// when its goroutine calls Stats (FrontDoorStats). So a dismissed hook
// does no atomic read-modify-write and writes no shared cache line, and
// Stats is exact for every goroutine that has exited, whose later hook
// reached the detector, or that calls it; any other live goroutine holds
// at most 63 counts not yet published.
//
// On a 2-vCPU Intel Xeon container with Go 1.24, the pages cut the
// deploy benchmark's instrumented slowdown (perfbench, r = 0.01) from
// ~16.7x to ~10.7x and its allocations per operation from 0.25 to 0.027;
// the price is ~2 KiB of shadow per touched page, never freed. Claiming
// only for accesses that reach the detector later cut it from ~7.8x to
// ~6.1x, dismissing redundant sync ops before the epoch lock to ~5.5x,
// and the per-goroutine tallies to ~4.4x.
//
// Sync objects resolve the same way: each G caches the ones it resolved
// (syncCache), so a sync hook reaches the shared map only on a cache
// miss. Neither a page nor a sync-object hit takes a lock or writes
// shared memory, and neither does the goroutine lookup before them
// (goid.go): registry reads are lock-free.
//
// ShadowMap, the address-keyed map behind both the page lookup and
// sync-object resolution, follows the publication discipline of
// internal/detector/shardbase: the resolve hit path is lock-free (shard
// table pointer, probed slots, and entry pointers are all published with
// atomic stores after their contents settle), inserts and evictions
// serialize on a per-shard mutex, and table growth copies then
// republishes so lock-free readers always hold a consistent table.
package rt

import (
	"sync"
	"sync/atomic"

	"pacer"
)

const (
	// pageShift sizes a shadow page: 4 KiB of program memory.
	pageShift = 12
	// pageWords is one word per 8-byte-aligned address of a page.
	pageWords = 1 << (pageShift - 3)
	// pageCacheWays is the number of page pointers each G caches.
	pageCacheWays = 16
)

// shadowPage holds VarID+1 for each 8-byte-aligned address of one page
// of program memory; 0 marks an address not claimed yet.
type shadowPage [pageWords]atomic.Uint32

// pageCache is a goroutine's direct-mapped cache of shadow pages, indexed
// by page number. Only the goroutine owning the G reads or writes it.
type pageCache [pageCacheWays]struct {
	num  uintptr
	page *shadowPage
}

// varEntry is one data address resolved outside the shadow pages: a start
// that is not 8-byte aligned, or one in the first page of the address
// space, whose number 0 cannot key a ShadowMap.
type varEntry struct {
	v pacer.VarID
}

// varShadow maps data addresses to VarIDs. Pages are never freed: a
// word's VarID is cleared by free, the page itself stays.
type varShadow struct {
	pages     *ShadowMap[shadowPage]
	unaligned *ShadowMap[varEntry]

	// misses, evicts and live cover the page path only (unaligned keeps
	// its own). Hits and unclaimed dismissals, on either path, go into
	// the resolving G's tally and are counted by the detector.
	misses atomic.Uint64
	evicts atomic.Uint64
	live   atomic.Int64
}

func newVarShadow() *varShadow {
	return &varShadow{pages: NewShadowMap[shadowPage](), unaligned: NewShadowMap[varEntry]()}
}

// resolve returns addr's VarID for g's access, claiming one from det on
// first sight, or ok = false when det dismissed the access unclaimed:
// outside a sampling period, an address with no VarID yet holds no
// metadata, so a lookup that finds none ends the hook without claiming
// one (see pacer.Detector.DismissUnclaimed). The dismissal is counted in
// g's tally. On ok = true the access goes on to the detector, so g's
// tally is published first (G.flush), a hit included. A registrar that
// loses the claim race takes the winner's VarID (its own is left unused)
// and counts as a hit, so hits + misses + unclaimed dismissals is exactly
// the number of resolves.
func (s *varShadow) resolve(g *G, addr uintptr, det *pacer.Detector, write bool) (v pacer.VarID, ok bool) {
	num := addr >> pageShift
	if addr&7 != 0 || num == 0 {
		st, unsampled := det.ProbeUnclaimed()
		if e := s.unaligned.Get(addr); e != nil {
			g.hit()
			return e.v, true
		}
		if unsampled && det.DismissUnclaimed(st) {
			g.unclaimed(write)
			return 0, false
		}
		g.flush()
		e, built := s.unaligned.SetIfAbsent(addr, func() *varEntry { return &varEntry{v: det.NewVarID()} })
		if !built {
			g.hit()
		}
		return e.v, true
	}
	// An empty cache entry holds page number 0, which never gets here.
	c := &g.pages[num%pageCacheWays]
	if c.num != num {
		c.num, c.page = num, s.page(num)
	}
	w := &c.page[addr>>3%pageWords]
	st, unsampled := det.ProbeUnclaimed()
	for {
		if id := w.Load(); id != 0 {
			g.hit()
			return pacer.VarID(id - 1), true
		}
		if unsampled && det.DismissUnclaimed(st) {
			g.unclaimed(write)
			return 0, false
		}
		g.flush()
		v := det.NewVarID()
		if w.CompareAndSwap(0, uint32(v)+1) {
			s.misses.Add(1)
			s.live.Add(1)
			return v, true
		}
	}
}

// hit counts a resolution of a claimed address in g's tally and
// publishes the tally: the access goes on to the detector.
func (g *G) hit() {
	g.tally.ShadowHits++
	g.n++
	g.flush()
}

// unclaimed counts an unclaimed dismissal in g's tally.
func (g *G) unclaimed(write bool) {
	if write {
		g.tally.UnclaimedWrites++
	} else {
		g.tally.UnclaimedReads++
	}
	g.counted()
}

// page returns page num's shadow page, allocating it on first sight.
func (s *varShadow) page(num uintptr) *shadowPage {
	if p := s.pages.Get(num); p != nil {
		return p
	}
	p, _ := s.pages.SetIfAbsent(num, func() *shadowPage { return new(shadowPage) })
	return p
}

// free clears addr's VarID, so the next access registers a fresh one.
func (s *varShadow) free(addr uintptr) {
	num := addr >> pageShift
	if addr&7 != 0 || num == 0 {
		s.unaligned.Evict(addr)
		return
	}
	p := s.pages.Get(num)
	if p != nil && p[addr>>3%pageWords].Swap(0) != 0 {
		s.evicts.Add(1)
		s.live.Add(-1)
	}
}

// stats returns the counters of both paths, summed. Hits are counted by
// the detector (see resolve), so ShadowHits is left zero.
func (s *varShadow) stats() pacer.FrontDoorStats {
	u := s.unaligned.Stats()
	return pacer.FrontDoorStats{
		ShadowMisses: s.misses.Load() + u.Misses,
		ShadowEvicts: s.evicts.Load() + u.Evicts,
		ShadowVars:   int(s.live.Load()) + u.Live,
	}
}

const (
	// shadowShards stripes the address map; addresses hash onto shards
	// with the same Fibonacci multiplier shardbase uses, extended to 64
	// bits.
	shadowShards = 256
	// shadowMinSlots is a fresh shard table's capacity (power of two).
	shadowMinSlots = 64
	// fib64 is the 64-bit Fibonacci-hashing multiplier (2^64 / φ).
	fib64 = 0x9E3779B97F4A7C15
	// tombstone marks a slot whose address was evicted: probes continue
	// past it, inserts may reclaim it. The zero address marks a never-used
	// slot and terminates probes.
	tombstone = ^uintptr(0)
)

// shadowSlot is one open-addressing slot: the address is published last
// on insert, so a reader that matches addr always finds ent set.
type shadowSlot[T any] struct {
	addr atomic.Uintptr
	ent  atomic.Pointer[T]
}

// shadowTable is one shard's slot array plus its occupancy accounting
// (mutated only under the shard lock).
type shadowTable[T any] struct {
	slots []shadowSlot[T]
	mask  uintptr
	live  int // slots holding a published address
	used  int // live + tombstones: the probe-length bound
}

// shadowShard is one stripe: a lock-free published table and the mutex
// serializing inserts, evictions, and growth.
type shadowShard[T any] struct {
	table atomic.Pointer[shadowTable[T]]
	mu    sync.Mutex
	_     [32]byte // keep neighboring shard locks off one cache line
}

// ShadowMap resolves addresses to interned values of type T with a
// lock-free hit path. SetIfAbsent returns the value built by the
// constructor passed to it, called at most once per live address (under
// the shard lock).
type ShadowMap[T any] struct {
	shards [shadowShards]shadowShard[T]

	// misses, evicts and live are counted under the shard lock those
	// operations take anyway. Hits are not counted: Get writes nothing
	// shared, and a caller that wants them counts them itself.
	misses atomic.Uint64
	evicts atomic.Uint64
	live   atomic.Int64
}

// NewShadowMap returns an empty map.
func NewShadowMap[T any]() *ShadowMap[T] {
	return &ShadowMap[T]{}
}

func shadowShardOf(addr uintptr) int {
	return int((uint64(addr) * fib64) >> 56 & (shadowShards - 1))
}

func shadowHash(addr uintptr, mask uintptr) uintptr {
	// Addresses share low alignment bits; the multiplier spreads them.
	return uintptr((uint64(addr)*fib64)>>32) & mask
}

// lookup probes tab for addr lock-free. It returns the entry, or nil when
// addr is absent from this table snapshot.
func lookup[T any](tab *shadowTable[T], addr uintptr) *T {
	mask := tab.mask
	for i := shadowHash(addr, mask); ; i = (i + 1) & mask {
		got := tab.slots[i].addr.Load()
		if got == addr {
			return tab.slots[i].ent.Load()
		}
		if got == 0 {
			return nil
		}
		// Occupied by another address or a tombstone: keep probing. The
		// insert path bounds used/len, so the probe always terminates.
	}
}

// Get returns the value registered for addr, or nil. This is the
// lock-free, allocation-free hit path, and it writes nothing shared;
// callers that see nil fall back to SetIfAbsent. Keeping the two separate
// lets the hot caller avoid even constructing the builder closure on hits.
func (m *ShadowMap[T]) Get(addr uintptr) *T {
	if tab := m.shards[shadowShardOf(addr)].table.Load(); tab != nil {
		return lookup(tab, addr)
	}
	return nil
}

// SetIfAbsent returns the value registered for addr, building one with
// build on first sight, and reports whether it built it. It takes the
// shard lock, re-probes (a racing registrar's insert wins, and built is
// false), and inserts. build runs under the shard lock and must not call
// back into the same map.
func (m *ShadowMap[T]) SetIfAbsent(addr uintptr, build func() *T) (e *T, built bool) {
	sh := &m.shards[shadowShardOf(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if tab := sh.table.Load(); tab != nil {
		if e := lookup(tab, addr); e != nil {
			// Raced with another registrar: their insert is ours.
			return e, false
		}
	}
	e = build()
	m.insertLocked(sh, addr, e)
	m.misses.Add(1)
	m.live.Add(1)
	return e, true
}

// insertLocked publishes addr→e, growing (or compacting tombstones) when
// the table is past 3/4 occupancy. Callers hold sh.mu.
func (m *ShadowMap[T]) insertLocked(sh *shadowShard[T], addr uintptr, e *T) {
	tab := sh.table.Load()
	if tab == nil || (tab.used+1)*4 > len(tab.slots)*3 {
		tab = m.rebuildLocked(sh, tab)
	}
	mask := tab.mask
	for i := shadowHash(addr, mask); ; i = (i + 1) & mask {
		got := tab.slots[i].addr.Load()
		if got == 0 || got == tombstone {
			if got == 0 {
				tab.used++
			}
			tab.live++
			// Publication order: entry first, then the address readers
			// match on — a lock-free probe that sees addr sees e.
			tab.slots[i].ent.Store(e)
			tab.slots[i].addr.Store(addr)
			return
		}
	}
}

// rebuildLocked copies live entries into a fresh table (doubling when the
// live set, as opposed to tombstone slack, fills half the table) and
// republishes it. Callers hold sh.mu; lock-free readers keep probing the
// old table until they reload the pointer, which stays consistent because
// old slots are never recycled.
func (m *ShadowMap[T]) rebuildLocked(sh *shadowShard[T], old *shadowTable[T]) *shadowTable[T] {
	n := shadowMinSlots
	if old != nil {
		n = len(old.slots)
		if (old.live+1)*2 > n {
			n *= 2
		}
	}
	fresh := &shadowTable[T]{slots: make([]shadowSlot[T], n), mask: uintptr(n - 1)}
	if old != nil {
		for i := range old.slots {
			addr := old.slots[i].addr.Load()
			if addr == 0 || addr == tombstone {
				continue
			}
			e := old.slots[i].ent.Load()
			mask := fresh.mask
			for j := shadowHash(addr, mask); ; j = (j + 1) & mask {
				if fresh.slots[j].addr.Load() == 0 {
					fresh.slots[j].ent.Store(e)
					fresh.slots[j].addr.Store(addr)
					fresh.used++
					fresh.live++
					break
				}
			}
		}
	}
	sh.table.Store(fresh)
	return fresh
}

// Evict removes addr's mapping, so a later Resolve of the same address
// builds a fresh value — the reuse discipline for freed memory. It
// reports whether a mapping was present. A Resolve racing an Evict may
// return the evicted value (it linearizes before the eviction).
func (m *ShadowMap[T]) Evict(addr uintptr) bool {
	sh := &m.shards[shadowShardOf(addr)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tab := sh.table.Load()
	if tab == nil {
		return false
	}
	mask := tab.mask
	for i := shadowHash(addr, mask); ; i = (i + 1) & mask {
		got := tab.slots[i].addr.Load()
		if got == addr {
			// Tombstone first: a reader that still matches the address
			// afterward resolves the old entry, which linearizes its
			// resolve before this eviction.
			tab.slots[i].addr.Store(tombstone)
			tab.slots[i].ent.Store(nil)
			tab.live--
			m.evicts.Add(1)
			m.live.Add(-1)
			return true
		}
		if got == 0 {
			return false
		}
	}
}

// ShadowMapStats is a ShadowMap's counter snapshot.
type ShadowMapStats struct {
	Misses, Evicts uint64
	Live           int
}

// Stats returns a snapshot of the map's counters.
func (m *ShadowMap[T]) Stats() ShadowMapStats {
	return ShadowMapStats{
		Misses: m.misses.Load(),
		Evicts: m.evicts.Load(),
		Live:   int(m.live.Load()),
	}
}
