package rt

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"pacer"
	"pacer/internal/event"
)

// statsDelta is the part of pacer.Stats the tally carries.
type statsDelta struct {
	unclaimed, hits, reads, writes, syncOps, fastJoins, shallowCopies uint64
}

func delta(a, b pacer.Stats) statsDelta {
	return statsDelta{
		unclaimed:     b.ShadowUnclaimed - a.ShadowUnclaimed,
		hits:          b.ShadowHits - a.ShadowHits,
		reads:         b.Reads - a.Reads,
		writes:        b.Writes - a.Writes,
		syncOps:       b.SyncOps - a.SyncOps,
		fastJoins:     b.FastJoins - a.FastJoins,
		shallowCopies: b.ShallowCopies - a.ShallowCopies,
	}
}

// TestTallyExactCounts: at rate 0, spawned goroutines end hooks by
// themselves in counts that are not multiples of the tally batch (their
// last hooks all dismissed), and the caller makes a few more. Stats, read
// by the caller, counts every one of them: the unclaimed dismissals as
// reads, writes and shadow hits, and the sync ops as a serialized
// detector fed the same operations through the embedded API counts them.
func TestTallyExactCounts(t *testing.T) {
	atRateZero(t)
	const children = 4
	ref := pacer.New(pacer.Options{SamplingRate: 0, Serialized: true})
	root := ref.NewThread()
	var bodies []func()
	var reads, writes uint64
	for i := 0; i < children; i++ {
		nr, nw, locks, atomics := 70+i, 45, 29+i, 13
		reads += uint64(nr)
		writes += uint64(nw)
		// Half of the accesses take the shadow pages, half the unaligned map.
		all := freshAddrs(nr + nw)
		ps := append(all[:(nr+nw)/2:(nr+nw)/2], all[nr+nw:nr+nw+(nr+nw+1)/2]...)
		mu, x := new(sync.Mutex), new(int64)
		heldAddrs = append(heldAddrs, mu, x)
		u, m, v := ref.Fork(root), ref.NewLockID(), ref.NewVolatileID()
		for k := 0; k < locks; k++ {
			ref.Acquire(u, m)
			ref.Release(u, m)
		}
		for k := 0; k < atomics; k++ {
			ref.VolWrite(u, v)
			ref.VolRead(u, v)
		}
		bodies = append(bodies, func() {
			var h Slot
			site := Site("tally_test.go:1:1")
			for k := 0; k < locks; k++ {
				LockAcquire(&h, unsafe.Pointer(mu))
				LockRelease(&h, unsafe.Pointer(mu))
			}
			for k := 0; k < atomics; k++ {
				AtomicStore(&h, unsafe.Pointer(x))
				AtomicLoad(&h, unsafe.Pointer(x))
			}
			for k, p := range ps {
				if k < nr {
					R(&h, p, 1, site)
				} else {
					W(&h, p, 1, site)
				}
			}
		})
	}
	const callerReads = 7
	reads += callerReads
	callerPs := freshAddrs(callerReads)[:callerReads]

	st0 := D().Stats()
	spawn(bodies...)
	var h Slot
	for _, p := range callerPs {
		R(&h, p, 1, testSite(t))
	}
	got := delta(st0, D().Stats())
	rs := ref.Stats()
	want := statsDelta{
		unclaimed: reads + writes, hits: reads + writes, reads: reads, writes: writes,
		syncOps: rs.SyncOps, fastJoins: rs.FastJoins, shallowCopies: rs.ShallowCopies,
	}
	if got != want {
		t.Fatalf("Stats advanced by %+v, want %+v", got, want)
	}
}

// TestTallyPublishedByWGDone: a child's dismissals are published by its
// WGDone, a sync op that reaches the detector, so they are in the Stats
// the parent reads once Wait returns, while the child has not reached
// GoExit yet.
func TestTallyPublishedByWGDone(t *testing.T) {
	atRateZero(t)
	const reads, acquires = 50, 20
	ps := freshAddrs(reads)[:reads]
	mu := new(sync.Mutex)
	var wg sync.WaitGroup
	start, release, exited := make(chan struct{}), make(chan struct{}), make(chan struct{})

	var h Slot
	g := GoSpawn(&h)
	wg.Add(1)
	go func() {
		defer close(exited)
		GoStart(g)
		defer GoExit(g)
		var h Slot
		<-start
		site := Site("tally_test.go:2:1")
		for _, p := range ps {
			R(&h, p, 1, site)
		}
		for k := 0; k < acquires; k++ {
			LockAcquire(&h, unsafe.Pointer(mu))
		}
		WGDone(&h, unsafe.Pointer(&wg))
		wg.Done()
		<-release
	}()
	st0 := D().Stats()
	close(start)
	wg.Wait()
	WGWait(&h, unsafe.Pointer(&wg))
	got := delta(st0, D().Stats())
	close(release)
	<-exited
	want := statsDelta{
		unclaimed: reads, hits: reads, reads: reads,
		// The acquires and the WaitGroup's publication and receipt.
		syncOps: acquires + 2, fastJoins: got.fastJoins, shallowCopies: got.shallowCopies,
	}
	if got != want {
		t.Fatalf("Stats after Wait advanced by %+v, want %+v", got, want)
	}
}

// TestTallyCallerFlushRollsPeriod: with 16 operations per period, the
// caller's own tally, published by its Stats call, carries the period
// clock past the period's end. The roll takes the epoch lock, which Stats
// does not hold yet, so the call returns, with the caller's hooks counted.
// TestUnclaimedRateZero runs it with PACER_PERIOD=16 (see rate0Env).
func TestTallyCallerFlushRollsPeriod(t *testing.T) {
	atRateZero(t)
	const n = 40 // between the period length and the tally batch
	ps := freshAddrs(n)[:n]
	st0 := D().Stats()
	var h Slot
	site := testSite(t)
	for _, p := range ps {
		R(&h, p, 1, site)
	}
	if got := delta(st0, D().Stats()); got.unclaimed != n || got.reads != n {
		t.Fatalf("Stats advanced by %+v, want %d unclaimed reads", got, n)
	}
}

// TestTallyStatsMonotone: Stats called while goroutines hook sees every
// counter the tallies feed only grow, and once the goroutines exit it
// sees all of their hooks. Run under -race, it also checks that no
// goroutine's tally is touched by another.
func TestTallyStatsMonotone(t *testing.T) {
	const workers, rounds = 4, 500
	site := testSite(t)
	var bodies []func()
	for w := 0; w < workers; w++ {
		mu, x, v := new(sync.Mutex), new(int64), new(int64)
		freeAfter(t, unsafe.Pointer(v))
		// After the goroutine's own release or store, its acquires and
		// loads repeat a snapshot it holds, so they are dismissed; the
		// releases, inside a sampling period, are not.
		bodies = append(bodies, func() {
			var h Slot
			AtomicStore(&h, unsafe.Pointer(x))
			for k := 0; k < rounds; k++ {
				LockAcquire(&h, unsafe.Pointer(mu))
				AtomicLoad(&h, unsafe.Pointer(x))
				W(&h, unsafe.Pointer(v), 8, site)
				LockRelease(&h, unsafe.Pointer(mu))
			}
		})
	}
	st0 := D().Stats()
	stop, polled := make(chan struct{}), make(chan error)
	go func() {
		prev := D().Stats()
		for {
			st := D().Stats()
			if st.ShadowHits < prev.ShadowHits || st.ShadowMisses < prev.ShadowMisses ||
				st.Reads < prev.Reads || st.Writes < prev.Writes || st.SyncOps < prev.SyncOps ||
				st.FastJoins < prev.FastJoins || st.ShallowCopies < prev.ShallowCopies {
				polled <- fmt.Errorf("a counter fell between two Stats calls: %+v -> %+v", prev, st)
				return
			}
			prev = st
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
		}
	}()
	spawn(bodies...)
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	st := D().Stats()
	// Each goroutine's fork, store and rounds.
	if got, want := st.SyncOps-st0.SyncOps, uint64(workers*(2+3*rounds)); got != want {
		t.Fatalf("sync ops advanced by %d, want %d", got, want)
	}
	if got, want := st.ShadowHits+st.ShadowMisses-st0.ShadowHits-st0.ShadowMisses, uint64(workers*rounds); got != want {
		t.Fatalf("hits + misses advanced by %d, want %d", got, want)
	}
}

// TestTallySyncNoOpNoAllocs pins the sync no-op path at zero allocations:
// at rate 0, once the goroutine has released its mutex and stored to its
// atomic, each further acquire, release, store and load repeats a
// snapshot it holds, so the detector dismisses it and it is only tallied.
func TestTallySyncNoOpNoAllocs(t *testing.T) {
	atRateZero(t)
	mu, x := new(sync.Mutex), new(int64)
	var h Slot
	g := h.G()
	ops := func() {
		LockAcquire(&h, unsafe.Pointer(mu))
		LockRelease(&h, unsafe.Pointer(mu))
		AtomicStore(&h, unsafe.Pointer(x))
		AtomicLoad(&h, unsafe.Pointer(x))
	}
	ops()
	g.flush()
	ops()
	if got, want := g.tally, (pacer.Tally{Joins: 2, Copies: 1, VolCopies: 1}); got != want {
		t.Fatalf("tally %+v after repeating the ops, want %+v (all dismissed)", got, want)
	}
	if avg := testing.AllocsPerRun(200, ops); avg != 0 {
		t.Fatalf("sync no-op path allocates %.2f per run, want 0", avg)
	}
}

// TestTallyPublishedBeforeDetector: a hook the shim passes on to the
// detector publishes the goroutine's tally first, so Stats read by a
// goroutine the shim never saw (which publishes nothing of its own)
// counts every earlier hook: the dismissals before a GoSpawn, and the hit
// of a write to a claimed address.
func TestTallyPublishedBeforeDetector(t *testing.T) {
	atRateZero(t)
	const reads, acquires = 3, 5
	ps := freshAddrs(reads)[:reads]
	mu := new(sync.Mutex)
	x := freshAddrs(1)[0]
	observe := func() pacer.Stats {
		ch := make(chan pacer.Stats)
		go func() { ch <- D().Stats() }()
		return <-ch
	}
	var h Slot
	site := testSite(t)
	D().Apply(pacer.Event{Kind: event.SampleBegin})
	W(&h, x, 8, site) // claims x
	D().Apply(pacer.Event{Kind: event.SampleEnd})
	// After its own release, the goroutine's acquires of mu are no-ops.
	LockAcquire(&h, unsafe.Pointer(mu))
	LockRelease(&h, unsafe.Pointer(mu))

	st0 := observe()
	for _, p := range ps {
		R(&h, p, 1, site)
	}
	for k := 0; k < acquires; k++ {
		LockAcquire(&h, unsafe.Pointer(mu))
	}
	g := GoSpawn(&h)
	st1 := observe()
	W(&h, x, 8, site)
	st2 := observe()
	spawnDone := make(chan struct{})
	go func() {
		defer close(spawnDone)
		GoStart(g)
		GoExit(g)
	}()
	<-spawnDone

	// The acquires, and the spawn's fork.
	if d := delta(st0, st1); d.unclaimed != reads || d.syncOps != acquires+1 {
		t.Errorf("%d unclaimed reads, %d acquires and a spawn advanced Stats by %+v", reads, acquires, d)
	}
	if d := delta(st1, st2); d.hits != 1 || d.writes != 1 {
		t.Errorf("a write to a claimed address advanced Stats by %+v, want one hit and one write", d)
	}
}
