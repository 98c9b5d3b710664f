package rt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"pacer"
)

// TestShadowMapBasics checks register/hit/evict bookkeeping on one
// goroutine.
func TestShadowMapBasics(t *testing.T) {
	m := NewShadowMap[varEntry]()
	if got := m.Get(0x1000); got != nil {
		t.Fatalf("empty map resolved %v", got)
	}
	e, built := m.SetIfAbsent(0x1000, func() *varEntry { return &varEntry{v: 1} })
	if e == nil || e.v != 1 || !built {
		t.Fatalf("SetIfAbsent returned %+v, built %v", e, built)
	}
	if got := m.Get(0x1000); got != e {
		t.Fatalf("Get returned %p, want %p", got, e)
	}
	if got, built := m.SetIfAbsent(0x1000, func() *varEntry { t.Fatal("build called for present address"); return nil }); got != e || built {
		t.Fatalf("SetIfAbsent returned %p, built %v, want existing %p", got, built, e)
	}
	if !m.Evict(0x1000) {
		t.Fatal("Evict of present address reported absent")
	}
	if m.Evict(0x1000) {
		t.Fatal("Evict of absent address reported present")
	}
	if got := m.Get(0x1000); got != nil {
		t.Fatalf("evicted address still resolves %+v", got)
	}
	st := m.Stats()
	if st.Misses != 1 || st.Evicts != 1 || st.Live != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestShadowMapFreshAfterEvict is the address-reuse discipline: once an
// address is evicted (its memory was freed), re-registering it must build
// a fresh value instead of resurrecting the dead mapping.
func TestShadowMapFreshAfterEvict(t *testing.T) {
	m := NewShadowMap[varEntry]()
	mk := func(v uint32) func() *varEntry {
		return func() *varEntry { return &varEntry{v: pacer.VarID(v)} }
	}
	first, _ := m.SetIfAbsent(0xbeef00, mk(7))
	m.Evict(0xbeef00)
	second, _ := m.SetIfAbsent(0xbeef00, mk(8))
	if second == first {
		t.Fatal("re-registration after evict returned the dead entry")
	}
	if second.v != 8 {
		t.Fatalf("re-registration kept stale value %d", second.v)
	}
}

// TestShadowMapGrowth pushes enough addresses through one map to force
// repeated table rebuilds, including tombstone compaction, and checks
// every live address still resolves to its own entry.
func TestShadowMapGrowth(t *testing.T) {
	m := NewShadowMap[varEntry]()
	const n = 20000
	entries := make(map[uintptr]*varEntry, n)
	for i := 0; i < n; i++ {
		addr := uintptr(0x10000 + 16*i)
		v := uint32(i)
		entries[addr], _ = m.SetIfAbsent(addr, func() *varEntry { return &varEntry{v: pacer.VarID(v)} })
	}
	// Evict every third address, then re-register half of those.
	for i := 0; i < n; i += 3 {
		addr := uintptr(0x10000 + 16*i)
		m.Evict(addr)
		delete(entries, addr)
	}
	for i := 0; i < n; i += 6 {
		addr := uintptr(0x10000 + 16*i)
		v := uint32(n + i)
		entries[addr], _ = m.SetIfAbsent(addr, func() *varEntry { return &varEntry{v: pacer.VarID(v)} })
	}
	for addr, want := range entries {
		if got := m.Get(addr); got != want {
			t.Fatalf("addr %#x resolved %p, want %p", addr, got, want)
		}
	}
	st := m.Stats()
	if st.Live != len(entries) {
		t.Fatalf("live %d, want %d", st.Live, len(entries))
	}
}

// TestShadowMapConcurrent hammers register/resolve/evict from many
// goroutines under the Go race detector: the lock-free hit path must
// never observe a torn slot, and the conservation invariant
// live == misses - evicts must hold once the dust settles.
func TestShadowMapConcurrent(t *testing.T) {
	m := NewShadowMap[varEntry]()
	const (
		workers = 8
		addrs   = 512
		rounds  = 2000
	)
	var next atomic.Uint32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				addr := uintptr(0x4000 + 8*rng.Intn(addrs))
				switch rng.Intn(10) {
				case 0:
					m.Evict(addr)
				default:
					e := m.Get(addr)
					if e == nil {
						e, _ = m.SetIfAbsent(addr, func() *varEntry {
							return &varEntry{v: pacer.VarID(next.Add(1))}
						})
					}
					if e == nil || e.v == 0 {
						t.Error("resolve returned unpublished entry")
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	st := m.Stats()
	if got := int(st.Misses) - int(st.Evicts); got != st.Live {
		t.Fatalf("conservation violated: misses %d - evicts %d = %d, live %d",
			st.Misses, st.Evicts, got, st.Live)
	}
	if st.Live < 0 || st.Live > addrs {
		t.Fatalf("implausible live count %d", st.Live)
	}
}

// TestShadowMapResolveHitNoAllocs pins the resolve hit path at zero
// allocations: an instrumented program's steady state is hits, and the
// front door must not feed the garbage collector from it.
func TestShadowMapResolveHitNoAllocs(t *testing.T) {
	m := NewShadowMap[varEntry]()
	addrs := make([]uintptr, 64)
	for i := range addrs {
		addrs[i] = uintptr(0x9000 + 8*i)
		v := uint32(i + 1)
		m.SetIfAbsent(addrs[i], func() *varEntry { return &varEntry{v: pacer.VarID(v)} })
	}
	var sink *varEntry
	avg := testing.AllocsPerRun(200, func() {
		for _, a := range addrs {
			sink = m.Get(a)
		}
	})
	if avg != 0 {
		t.Fatalf("resolve hit path allocates %.2f per run, want 0", avg)
	}
	_ = sink
}

// TestShadowPageDistinctStarts: every distinct start address gets its own
// VarID, whether it resolves through a shadow page (8-byte aligned) or
// the unaligned map, and resolving it again returns the same one. The
// int64 slice spans more pages than a G caches, so later resolves also
// go through page-cache evictions.
func TestShadowPageDistinctStarts(t *testing.T) {
	type mixed struct {
		b0, b1 byte
		i32    int32
		i64    int64
		b2     byte
		i32b   int32
	}
	s := new(mixed)
	bytes := make([]byte, 64)
	i32s := make([]int32, 64)
	i64s := make([]int64, 2*pageCacheWays*pageWords)
	addrs := []unsafe.Pointer{
		unsafe.Pointer(&s.b0), unsafe.Pointer(&s.b1), unsafe.Pointer(&s.i32),
		unsafe.Pointer(&s.i64), unsafe.Pointer(&s.b2), unsafe.Pointer(&s.i32b),
	}
	for i := range bytes {
		addrs = append(addrs, unsafe.Pointer(&bytes[i]))
	}
	for i := range i32s {
		addrs = append(addrs, unsafe.Pointer(&i32s[i]))
	}
	for i := range i64s {
		addrs = append(addrs, unsafe.Pointer(&i64s[i]))
	}
	freeAfter(t, addrs...)

	var h Slot
	ids := make(map[pacer.VarID]unsafe.Pointer, len(addrs))
	for _, p := range addrs {
		v := varOf(&h, p)
		if q, dup := ids[v]; dup {
			t.Fatalf("%p and %p share VarID %d", q, p, v)
		}
		ids[v] = p
	}
	for _, p := range addrs {
		if v := varOf(&h, p); ids[v] != p {
			t.Fatalf("%p resolved to VarID %d on repeat, which belongs to %p", p, v, ids[v])
		}
	}
}

// TestShadowPageConcurrentFirstSight: 16 goroutines first-touch the same
// addresses at once. Each address must end with one VarID, registered by
// exactly one of them, and every resolve must count as a hit or a miss.
func TestShadowPageConcurrentFirstSight(t *testing.T) {
	const workers = 16
	words := make([]int64, 2*pageWords)
	bytes := make([]byte, 32)
	var addrs []unsafe.Pointer
	for i := range words {
		addrs = append(addrs, unsafe.Pointer(&words[i]))
	}
	for i := range bytes {
		addrs = append(addrs, unsafe.Pointer(&bytes[i]))
	}
	freeAfter(t, addrs...)

	st0 := D().Stats()
	got := make([][]pacer.VarID, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		var h Slot
		g := GoSpawn(&h)
		wg.Add(1)
		go func(w int) {
			GoStart(g)
			defer GoExit(g)
			defer wg.Done()
			var h Slot
			<-start
			ids := make([]pacer.VarID, len(addrs))
			for i, p := range addrs {
				ids[i] = varOf(&h, p)
			}
			got[w] = ids
		}(w)
	}
	close(start)
	wg.Wait()
	st1 := D().Stats()

	seen := make(map[pacer.VarID]int, len(addrs))
	for i := range addrs {
		v := got[0][i]
		for w := 1; w < workers; w++ {
			if got[w][i] != v {
				t.Fatalf("address %d: goroutine 0 got VarID %d, goroutine %d got %d", i, v, w, got[w][i])
			}
		}
		if j, dup := seen[v]; dup {
			t.Fatalf("addresses %d and %d share VarID %d", j, i, v)
		}
		seen[v] = i
	}
	misses := st1.ShadowMisses - st0.ShadowMisses
	hits := st1.ShadowHits - st0.ShadowHits
	if misses != uint64(len(addrs)) {
		t.Fatalf("misses %d, want %d (one per distinct address)", misses, len(addrs))
	}
	if hits+misses != uint64(workers*len(addrs)) {
		t.Fatalf("hits %d + misses %d = %d, want %d hooks", hits, misses, hits+misses, workers*len(addrs))
	}
}

// TestHookHitNoAllocs pins the R and W hooks at zero allocations once the
// frame's Slot is resolved and the address registered: the steady state
// of an instrumented program.
func TestHookHitNoAllocs(t *testing.T) {
	x := new(int64)
	freeAfter(t, unsafe.Pointer(x))
	var h Slot
	site := Site("shadow_test.go:1:1")
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
	avg := testing.AllocsPerRun(200, func() {
		R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
	})
	if avg != 0 {
		t.Fatalf("hook hit path allocates %.2f per run, want 0", avg)
	}
}
