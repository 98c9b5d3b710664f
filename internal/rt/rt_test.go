package rt

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"unsafe"

	"pacer"
)

// TestMain pins the environment the process-global detector mounts from
// before any hook runs: full sampling so detection is deterministic, and
// quiet so racy subtests don't spam stderr.
func TestMain(m *testing.M) {
	os.Setenv("PACER_RATE", "1")
	os.Setenv("PACER_QUIET", "1")
	os.Unsetenv("PACER_OUT")
	os.Unsetenv("PACER_FLEET")
	os.Exit(m.Run())
}

var siteSeq int

// testSite interns a unique synthetic capture site per call so subtests
// never alias each other's distinct-race keys.
func testSite(t *testing.T) int {
	siteSeq++
	return Site(fmt.Sprintf("rt_test.go:%d:%d", 1000+siteSeq, siteSeq))
}

// freeAfter evicts the addresses a test registers once it ends, so a
// later test's allocation at a reused address registers afresh instead
// of inheriting this test's access history. Holding the pointers also
// keeps them on the heap, where an address cannot move with a growing
// stack.
func freeAfter(t *testing.T, ps ...unsafe.Pointer) {
	t.Cleanup(func() {
		for _, p := range ps {
			FreeVar(p)
		}
	})
}

// spawn runs body on a new instrumented goroutine (GoSpawn in the parent,
// GoStart/GoExit in the child) and returns after it finishes. The join
// uses a plain channel with no rt hooks, so the detector sees no
// happens-before edge back to the parent — exactly the shape of a racy
// program whose second access happens to run later in wall time.
func spawn(body func()) {
	var h Slot
	g := GoSpawn(&h)
	done := make(chan struct{})
	go func() {
		GoStart(g)
		defer GoExit(g)
		defer close(done)
		body()
	}()
	<-done
}

// TestRacyPairDetected: write in a spawned goroutine, then an unordered
// write in the parent. At rate 1 the detector must report it.
func TestRacyPairDetected(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	spawn(func() {
		var h Slot // the child's own frame
		*x = 1
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
	})
	*x = 2
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	if got := Races() - before; got != 1 {
		t.Fatalf("distinct races %d, want 1", got)
	}
}

// TestForkEdgeSuppresses: the parent writes before the spawn, the child
// after GoStart — ordered by the fork edge, so no report.
func TestForkEdgeSuppresses(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	*x = 1
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
	spawn(func() {
		var h Slot
		*x = 2
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	})
	if got := Races() - before; got != 0 {
		t.Fatalf("fork-ordered writes reported %d races", got)
	}
}

// TestMutexGuardSuppresses: the same unordered-in-time shape as the racy
// pair, but both writes hold the same (shadow-mapped) mutex.
func TestMutexGuardSuppresses(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	var mu sync.Mutex
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	spawn(func() {
		var h Slot
		mu.Lock()
		LockAcquire(&h, unsafe.Pointer(&mu))
		*x = 1
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
		LockRelease(&h, unsafe.Pointer(&mu))
		mu.Unlock()
	})
	mu.Lock()
	LockAcquire(&h, unsafe.Pointer(&mu))
	*x = 2
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	LockRelease(&h, unsafe.Pointer(&mu))
	mu.Unlock()
	if got := Races() - before; got != 0 {
		t.Fatalf("mutex-guarded writes reported %d races", got)
	}
}

// TestRWMutexGuardSuppresses: writer in the child, reader in the parent,
// both under the RWMutex hook protocol.
func TestRWMutexGuardSuppresses(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	var rw sync.RWMutex
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	spawn(func() {
		var h Slot
		rw.Lock()
		RWLock(&h, unsafe.Pointer(&rw))
		*x = 1
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
		RWUnlock(&h, unsafe.Pointer(&rw))
		rw.Unlock()
	})
	rw.RLock()
	RWRLock(&h, unsafe.Pointer(&rw))
	_ = *x
	R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	RWRUnlock(&h, unsafe.Pointer(&rw))
	rw.RUnlock()
	if got := Races() - before; got != 0 {
		t.Fatalf("rwmutex-guarded accesses reported %d races", got)
	}
}

// TestChannelGuardSuppresses: the child writes then sends; the parent
// receives then writes. The send→receive volatile edge orders the writes.
func TestChannelGuardSuppresses(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	ch := make(chan int, 1)
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	spawn(func() {
		var h Slot
		*x = 1
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
		ChanSend(&h, ch)
		ch <- 1
		ChanSendDone(&h, ch)
	})
	ChanRecvPre(&h, ch)
	<-ch
	ChanRecv(&h, ch)
	*x = 2
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	if got := Races() - before; got != 0 {
		t.Fatalf("channel-ordered writes reported %d races", got)
	}
}

// TestWaitGroupGuardSuppresses: the child writes then Done()s; the parent
// Wait()s then writes.
func TestWaitGroupGuardSuppresses(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	var wg sync.WaitGroup
	wg.Add(1)
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	spawn(func() {
		var h Slot
		*x = 1
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
		WGDone(&h, unsafe.Pointer(&wg))
		wg.Done()
	})
	wg.Wait()
	WGWait(&h, unsafe.Pointer(&wg))
	*x = 2
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	if got := Races() - before; got != 0 {
		t.Fatalf("waitgroup-ordered writes reported %d races", got)
	}
}

// TestReadsDoNotRace: concurrent reads are never a race.
func TestReadsDoNotRace(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	spawn(func() {
		var h Slot
		_ = *x
		R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
	})
	_ = *x
	R(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	if got := Races() - before; got != 0 {
		t.Fatalf("read/read reported %d races", got)
	}
}

// TestRaceReportCarriesStacks: a reported race's sites must symbolize to
// the interned file:line via the detector's frame tables.
func TestRaceReportCarriesStacks(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	s1, s2 := testSite(t), testSite(t)
	before := Races()
	spawn(func() {
		var h Slot
		*x = 1
		W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
	})
	*x = 2
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s2)
	if Races()-before != 1 {
		t.Fatal("planted race not reported")
	}
	for _, s := range []int{s1, s2} {
		frames := D().FramesOf(pacer.SiteID(s))
		if len(frames) == 0 {
			t.Fatalf("site %d has no frames registered", s)
		}
		if frames[0].File != "rt_test.go" || frames[0].Line == 0 {
			t.Fatalf("site %d frame 0 = %+v, want rt_test.go:<line>", s, frames[0])
		}
	}
}

// TestFrontDoorStatsSurface: shadow-map counters must flow through
// pacer.Stats, and FreeVar must count as an evict and free the slot for a
// fresh VarID.
func TestFrontDoorStatsSurface(t *testing.T) {
	var h Slot
	x := new(int)
	freeAfter(t, unsafe.Pointer(x))
	s1 := testSite(t)
	st0 := D().Stats()
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1) // miss: registers x
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1) // hit
	st1 := D().Stats()
	if st1.ShadowMisses != st0.ShadowMisses+1 {
		t.Fatalf("misses %d -> %d, want +1", st0.ShadowMisses, st1.ShadowMisses)
	}
	if st1.ShadowHits <= st0.ShadowHits {
		t.Fatalf("hits did not advance: %d -> %d", st0.ShadowHits, st1.ShadowHits)
	}
	if st1.ShadowVars != st0.ShadowVars+1 {
		t.Fatalf("vars %d -> %d, want +1", st0.ShadowVars, st1.ShadowVars)
	}

	v1 := state.vars.Get(uintptr(unsafe.Pointer(x))).v
	FreeVar(unsafe.Pointer(x))
	st2 := D().Stats()
	if st2.ShadowEvicts != st1.ShadowEvicts+1 {
		t.Fatalf("evicts %d -> %d, want +1", st1.ShadowEvicts, st2.ShadowEvicts)
	}
	if st2.ShadowVars != st1.ShadowVars-1 {
		t.Fatalf("vars %d -> %d, want -1", st1.ShadowVars, st2.ShadowVars)
	}
	W(&h, unsafe.Pointer(x), unsafe.Sizeof(*x), s1)
	if v2 := state.vars.Get(uintptr(unsafe.Pointer(x))).v; v2 == v1 {
		t.Fatalf("reused address kept VarID %d after FreeVar", v1)
	}
}

// TestSiteInterning: Site is idempotent per location and SiteLoc round-trips.
func TestSiteInterning(t *testing.T) {
	a := Site("demo.go:42")
	b := Site("demo.go:42")
	c := Site("demo.go:43")
	if a != b {
		t.Fatalf("same location interned twice: %d vs %d", a, b)
	}
	if a == c {
		t.Fatalf("distinct locations collided on id %d", a)
	}
	if got := SiteLoc(a); got != "demo.go:42" {
		t.Fatalf("SiteLoc = %q", got)
	}
	if got := SiteLoc(999999); got != "site 999999" {
		t.Fatalf("unknown SiteLoc = %q", got)
	}
}
