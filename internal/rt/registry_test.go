package rt

import (
	"sync"
	"testing"
	"unsafe"
)

// TestRegistryDirectCollision: two Gs whose ids share a direct-table slot
// each resolve to themselves, and unbinding either leaves the other
// bound, whichever of the two holds the slot.
func TestRegistryDirectCollision(t *testing.T) {
	r := newGRegistry()
	a := &G{id: 5}
	b := &G{id: 5 + gDirect}
	c := &G{id: 5 + 2*gDirect}
	r.put(a) // takes the slot
	r.put(b) // collides: goes to the striped map
	if got := r.get(a.id); got != a {
		t.Fatalf("get(%d) = %p, want %p", a.id, got, a)
	}
	if got := r.get(b.id); got != b {
		t.Fatalf("get(%d) = %p, want %p", b.id, got, b)
	}
	r.drop(a)
	if got := r.get(a.id); got != nil {
		t.Fatalf("dropped id %d still resolves to %p", a.id, got)
	}
	if got := r.get(b.id); got != b {
		t.Fatalf("dropping the slot's holder lost its neighbour: get(%d) = %p", b.id, got)
	}
	r.put(c) // the slot is free again
	r.drop(b)
	if got := r.get(b.id); got != nil {
		t.Fatalf("dropped id %d still resolves to %p", b.id, got)
	}
	if got := r.get(c.id); got != c {
		t.Fatalf("dropping a map entry unbound the slot's holder: get(%d) = %p", c.id, got)
	}
}

// TestRegistryCollidingGoroutines: two live goroutines whose runtime ids
// collide in the direct table each resolve their frames to their own G,
// and the exit of either never drops the other.
func TestRegistryCollidingGoroutines(t *testing.T) {
	for exitFirst := 0; exitFirst < 2; exitFirst++ {
		var h Slot
		gs := [2]*G{GoSpawn(&h), GoSpawn(&h)}
		var steps [2]chan struct{}
		resolved, done := make(chan *G), make(chan struct{})
		run := func(i int) {
			defer func() { done <- struct{}{} }()
			GoStart(gs[i])
			defer GoExit(gs[i])
			for range steps[i] {
				var h Slot
				resolved <- h.G()
			}
		}
		resolve := func(i int) {
			t.Helper()
			steps[i] <- struct{}{}
			if got := <-resolved; got != gs[i] {
				t.Fatalf("goroutine %d resolved to %p, want its own %p", i, got, gs[i])
			}
		}

		// The first goroutine takes a free slot; candidates then start
		// until one's id shares it. Runtime ids rise by about one per
		// goroutine, so a few thousand candidates suffice.
		slot := int64(-1)
		for i := range gs {
			steps[i] = make(chan struct{})
			for tries := 0; ; tries++ {
				if tries == 1<<16 {
					t.Fatalf("no goroutine id for goroutine %d in %d tries", i, tries)
				}
				ids, keep := make(chan int64), make(chan bool)
				go func() {
					ids <- goid()
					if <-keep {
						run(i)
					}
				}()
				s := <-ids & (gDirect - 1)
				ok := slot == s || slot < 0 && goroutines.direct[s].Load() == nil
				keep <- ok
				if ok {
					slot = s
					break
				}
			}
			// GoStart runs on the new goroutine, so wait for it to bind:
			// an unbound goroutine 0 would leave the direct slot free for
			// goroutine 1's candidate to take first.
			resolve(i)
		}
		if got := goroutines.direct[slot].Load(); got != gs[0] || goroutines.get(gs[1].id) != gs[1] {
			t.Fatalf("slot %d holds %p: want %p there and %p in the map", slot, got, gs[0], gs[1])
		}

		other := 1 - exitFirst
		close(steps[exitFirst])
		<-done
		resolve(other)
		close(steps[other])
		<-done
		for i := range gs {
			if got := goroutines.get(gs[i].id); got != nil {
				t.Fatalf("goroutine %d's id %d still bound to %p after it exited", i, gs[i].id, got)
			}
		}
	}
}

// heldMutexes keeps TestSyncCacheWayCollision's mutexes on the heap.
var heldMutexes []sync.Mutex

// TestSyncCacheWayCollision: two sync objects whose addresses share a
// way of a goroutine's sync cache keep their distinct identifiers however
// their resolutions interleave.
func TestSyncCacheWayCollision(t *testing.T) {
	Init()
	mus := make([]sync.Mutex, 64)
	heldMutexes = mus // on the heap, where an address cannot move
	var a, b *sync.Mutex
	for i := 1; i < len(mus) && b == nil; i++ {
		if syncWay(uintptr(unsafe.Pointer(&mus[i]))) == syncWay(uintptr(unsafe.Pointer(&mus[0]))) {
			a, b = &mus[0], &mus[i]
		}
	}
	if b == nil {
		t.Fatal("no two of 64 mutexes share a sync-cache way")
	}
	g := &G{}
	want := [2]*syncObj{
		lookupSync(uintptr(unsafe.Pointer(a)), kindMutex),
		lookupSync(uintptr(unsafe.Pointer(b)), kindMutex),
	}
	if want[0].lock == want[1].lock {
		t.Fatalf("two mutexes share lock %d", want[0].lock)
	}
	for i := 0; i < 8; i++ {
		for j, mu := range []*sync.Mutex{a, b, b, a} {
			got := resolveSync(g, uintptr(unsafe.Pointer(mu)), kindMutex)
			if w := want[(j+1)/2%2]; got != w {
				t.Fatalf("round %d step %d: resolved lock %d, want %d", i, j, got.lock, w.lock)
			}
		}
	}
}

// TestSyncCacheHooksNoAllocs: lock and channel hooks on a
// resolved slot, whose objects its goroutine has resolved before,
// allocate nothing.
func TestSyncCacheHooksNoAllocs(t *testing.T) {
	var mu sync.Mutex
	ch := make(chan int, 1)
	var h Slot
	avg := testing.AllocsPerRun(200, func() {
		mu.Lock()
		LockAcquire(&h, unsafe.Pointer(&mu))
		LockRelease(&h, unsafe.Pointer(&mu))
		mu.Unlock()
		ChanSend(&h, ch)
	})
	if avg != 0 {
		t.Fatalf("sync hooks on a resolved slot allocate %.2f per run, want 0", avg)
	}
}
