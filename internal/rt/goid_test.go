package rt

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestSlotParsesOncePerFrame: however many hooks run in one frame, the
// frame's slot resolves the goroutine identity once, on the first of
// them.
func TestSlotParsesOncePerFrame(t *testing.T) {
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	var mu sync.Mutex
	site := testSite(t)
	Init()
	g := current()
	before := g.resolves
	var h Slot
	for i := 0; i < 50; i++ {
		R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), site)
		mu.Lock()
		LockAcquire(&h, unsafe.Pointer(&mu))
		LockRelease(&h, unsafe.Pointer(&mu))
		mu.Unlock()
	}
	if h.g != g {
		t.Fatalf("slot resolved to %p, want the test goroutine's %p", h.g, g)
	}
	if got := g.resolves - before; got != 1 {
		t.Fatalf("200 hooks in one frame resolved the goroutine identity %d times, want 1", got)
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

// TestGoidMatchesStackParse pins goid to the runtime.Stack header it
// replaces, wherever a goroutine's g could plausibly look different.
func TestGoidMatchesStackParse(t *testing.T) {
	check := func(t *testing.T, where string) {
		t.Helper()
		if got, want := goid(), parseGoid(); got != want {
			t.Errorf("%s: goid %d, runtime.Stack says %d", where, got, want)
		}
	}

	t.Run("test goroutine", func(t *testing.T) { check(t, "test goroutine") })

	t.Run("fresh goroutines", func(t *testing.T) {
		const n = 256
		type pair struct{ fast, parsed int64 }
		ids := make([]pair, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				atDepth(i%16, func() { ids[i] = pair{goid(), parseGoid()} })
			}()
		}
		wg.Wait()
		seen := make(map[int64]bool, n)
		for i, p := range ids {
			if p.fast != p.parsed {
				t.Errorf("goroutine %d: goid %d, runtime.Stack says %d", i, p.fast, p.parsed)
			}
			if seen[p.fast] {
				t.Errorf("goroutine %d: id %d shared with another goroutine", i, p.fast)
			}
			seen[p.fast] = true
		}
	})

	t.Run("stack growth", func(t *testing.T) {
		done := make(chan struct{})
		go func() { // a fresh goroutine starts on the smallest stack
			defer close(done)
			check(t, "before growth")
			before := goid()
			if got := growStack(64); got != before {
				t.Errorf("goid %d in a deep frame, %d at the top", got, before)
			}
			check(t, "after growth")
		}()
		<-done
	})

	t.Run("AfterFunc callback", func(t *testing.T) {
		done := make(chan struct{})
		time.AfterFunc(time.Millisecond, func() {
			defer close(done)
			check(t, "AfterFunc callback")
		})
		<-done
	})
}

// atDepth calls f n frames below its caller.
func atDepth(n int, f func()) {
	if n == 0 {
		f()
		return
	}
	atDepth(n-1, f)
}

// growStack recurses n frames of 1 KiB each, far past a new goroutine's
// initial stack, and returns the goid read at the bottom, after the
// runtime has copied the stack at least once, or -1 if it disagrees with
// the parser there.
//
//go:noinline
func growStack(n int) int64 {
	var pad [1024]byte
	pad[n%len(pad)] = 1
	if n == 0 {
		if id := goid(); id == parseGoid() {
			return id
		}
		return -1
	}
	return growStack(n-1) * int64(pad[n%len(pad)])
}

// TestParseGoid exercises the runtime.Stack parser directly, since on
// amd64 goid reaches it only when calibration fails: ids are positive,
// stable within a goroutine, distinct across goroutines (the runtime
// never reuses one), and parsed without allocating.
func TestParseGoid(t *testing.T) {
	id := parseGoid()
	if id <= 0 {
		t.Fatalf("parsed goroutine id %d, want > 0", id)
	}
	atDepth(8, func() {
		if got := parseGoid(); got != id {
			t.Errorf("parsed id %d eight frames down, %d at the top", got, id)
		}
	})

	const n = 32
	ids := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = parseGoid()
		}()
	}
	wg.Wait()
	seen := map[int64]bool{id: true}
	for i, got := range ids {
		if got <= 0 || seen[got] {
			t.Errorf("goroutine %d parsed id %d: not positive or not unique", i, got)
		}
		seen[got] = true
	}

	if avg := testing.AllocsPerRun(100, func() { parseGoid() }); avg != 0 {
		t.Errorf("parseGoid allocates %.2f per run, want 0", avg)
	}
}
