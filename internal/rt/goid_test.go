package rt

import (
	"sync"
	"testing"
	"unsafe"
)

// TestSlotParsesOncePerFrame: however many hooks run in one frame, the
// frame's slot parses the goroutine id once, on the first of them.
func TestSlotParsesOncePerFrame(t *testing.T) {
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	var mu sync.Mutex
	site := testSite(t)
	Init()
	before := goidParses.Load()
	var h Slot
	for i := 0; i < 50; i++ {
		R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
		mu.Lock()
		LockAcquire(&h, unsafe.Pointer(&mu))
		LockRelease(&h, unsafe.Pointer(&mu))
		mu.Unlock()
	}
	if got := goidParses.Load() - before; got != 1 {
		t.Fatalf("200 hooks in one frame parsed the goroutine id %d times, want 1", got)
	}
}

// TestSlotResolveNoAllocs: resolving a fresh slot on a goroutine the
// registry already knows allocates nothing, the runtime.Stack buffer
// included.
func TestSlotResolveNoAllocs(t *testing.T) {
	var warm Slot
	want := warm.G()
	var got *G
	avg := testing.AllocsPerRun(200, func() {
		var h Slot
		got = h.G()
	})
	if avg != 0 {
		t.Fatalf("slot resolution allocates %.2f per run, want 0", avg)
	}
	if got != want {
		t.Fatalf("slot resolved to %p, want the registered %p", got, want)
	}
}

// TestHookOnResolvedSlotNoAllocs: a hook on a resolved slot whose address
// hits the shadow map allocates nothing.
func TestHookOnResolvedSlotNoAllocs(t *testing.T) {
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	site := testSite(t)
	var h Slot
	R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site) // registers x, captures the site
	avg := testing.AllocsPerRun(200, func() {
		R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
	})
	if avg != 0 {
		t.Fatalf("hook on a resolved slot allocates %.2f per run, want 0", avg)
	}
}

// TestConcurrentFrameSlots drives hooks from many instrumented goroutines
// at once, each through its own frames' slots, on private data and on a
// mutex-guarded counter. Every access is ordered or private, so the
// detector must report nothing; run under -race it also checks that the
// identity path itself is free of data races.
func TestConcurrentFrameSlots(t *testing.T) {
	const workers, rounds = 16, 200
	var (
		mu      sync.Mutex
		counter int
		wg      sync.WaitGroup
	)
	freeAfter(t, unsafe.Pointer(&counter))
	guarded, private := testSite(t), testSite(t)
	before := Races()

	work := func(priv []int) {
		var h Slot
		defer DeferWGDone(h.G(), &wg)
		for i := 0; i < rounds; i++ {
			p := &priv[i%len(priv)]
			R(&h, unsafe.Pointer(p), unsafe.Sizeof(*p), private)
			*p++
			W(&h, unsafe.Pointer(p), unsafe.Sizeof(*p), private)
			func() {
				var h Slot // a nested frame resolves on its own
				mu.Lock()
				LockAcquire(&h, unsafe.Pointer(&mu))
				R(&h, unsafe.Pointer(&counter), unsafe.Sizeof(counter), guarded)
				counter++
				W(&h, unsafe.Pointer(&counter), unsafe.Sizeof(counter), guarded)
				LockRelease(&h, unsafe.Pointer(&mu))
				mu.Unlock()
			}()
		}
	}

	var h Slot
	for w := 0; w < workers; w++ {
		wg.Add(1)
		priv := make([]int, 8)
		for i := range priv {
			freeAfter(t, unsafe.Pointer(&priv[i]))
		}
		g := GoSpawn(&h)
		go func() {
			GoStart(g)
			defer GoExit(g)
			work(priv)
		}()
	}
	wg.Wait()
	WGWait(&h, unsafe.Pointer(&wg))

	if counter != workers*rounds {
		t.Fatalf("counter %d, want %d", counter, workers*rounds)
	}
	if got := Races() - before; got != 0 {
		t.Fatalf("ordered and private accesses reported %d races", got)
	}
}
