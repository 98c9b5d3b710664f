package pacer_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pacer"
)

func TestFullRateDetectsRace(t *testing.T) {
	var races []pacer.Race
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(r pacer.Race) { races = append(races, r) }})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	v := d.NewVarID()
	d.Write(t0, v, 10)
	// t1's write is concurrent with t0's: fork ordered t1 after the fork
	// point but t0's write came after the fork.
	d.Write(t1, v, 20)
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1", len(races))
	}
	if races[0].Kind != pacer.WriteWrite {
		t.Errorf("kind = %v", races[0].Kind)
	}
}

func TestZeroRateDetectsNothing(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 0, OnRace: func(r pacer.Race) { t.Errorf("unexpected race %v", r) }})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	v := d.NewVarID()
	for i := 0; i < 1000; i++ {
		d.Write(t0, v, 1)
		d.Write(t1, v, 2)
	}
	s := d.Stats()
	if s.VarsTracked != 0 {
		t.Errorf("r=0 tracked %d variables", s.VarsTracked)
	}
	if s.FastPathWrites == 0 {
		t.Error("fast path never used")
	}
}

func TestMutexPreventsReports(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(r pacer.Race) { t.Errorf("false positive %v", r) }})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	m := d.NewMutex()
	v := d.NewVarID()
	// Interleaved but lock-ordered accesses.
	m.Lock(t0)
	d.Write(t0, v, 1)
	m.Unlock(t0)
	m.Lock(t1)
	d.Write(t1, v, 2)
	m.Unlock(t1)
}

func TestSharedCellRaceFound(t *testing.T) {
	found := 0
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(pacer.Race) { found++ }})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	c := pacer.NewShared(d, 0)
	c.Store(t0, 1, 41)
	if got := c.Load(t1, 2); got != 41 {
		t.Errorf("Load = %d, want 41", got)
	}
	if found != 1 {
		t.Errorf("races = %d, want 1 (unsynchronized store/load)", found)
	}
}

func TestSharedUpdate(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 0})
	t0 := d.NewThread()
	c := pacer.NewShared(d, 10)
	c.Update(t0, 1, func(x int) int { return x * 2 })
	if got := c.Load(t0, 2); got != 20 {
		t.Errorf("Update result = %d, want 20", got)
	}
}

func TestAtomicSynchronizes(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(r pacer.Race) { t.Errorf("false positive %v", r) }})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	flag := pacer.NewAtomic(d, false)
	data := d.NewVarID()
	d.Write(t0, data, 1)
	flag.Store(t0, true)
	if !flag.Load(t1) {
		t.Fatal("atomic value lost")
	}
	d.Read(t1, data, 2) // ordered by the volatile: no race
}

func TestJoinSynchronizes(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(r pacer.Race) { t.Errorf("false positive %v", r) }})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	v := d.NewVarID()
	d.Write(t1, v, 1)
	d.Join(t0, t1)
	d.Read(t0, v, 2)
}

// Sampling proportionality through the public API: the detection frequency
// of a one-shot race across many detector instances approximates the rate.
func TestSamplingRateProportionality(t *testing.T) {
	const rate = 0.25
	const trials = 400
	detected := 0
	for i := 0; i < trials; i++ {
		got := false
		d := pacer.New(pacer.Options{
			SamplingRate: rate,
			PeriodOps:    64,
			Seed:         int64(i + 1),
			OnRace:       func(pacer.Race) { got = true },
		})
		t0 := d.NewThread()
		t1 := d.Fork(t0)
		v := d.NewVarID()
		// Pad with unrelated work so the racy pair lands in a random
		// period.
		pad := d.NewVarID()
		for j := 0; j < 50+((i*37)%200); j++ {
			d.Read(t0, pad, 9)
		}
		d.Write(t0, v, 1)
		d.Write(t1, v, 2)
		if got {
			detected++
		}
	}
	p := float64(detected) / trials
	if p < rate*0.55 || p > rate*1.45 {
		t.Errorf("detection rate %.3f far from sampling rate %.2f", p, rate)
	}
}

// The public API is safe for concurrent use (run with -race).
func TestConcurrentUse(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 0.5, PeriodOps: 32})
	t0 := d.NewThread()
	var wg sync.WaitGroup
	m := d.NewMutex()
	c := pacer.NewShared(d, 0)
	for g := 0; g < 8; g++ {
		tid := d.Fork(t0)
		wg.Add(1)
		go func(tid pacer.ThreadID) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Lock(tid)
				c.Update(tid, 5, func(x int) int { return x + 1 })
				m.Unlock(tid)
			}
		}(tid)
	}
	wg.Wait()
	if got := c.Load(t0, 6); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
	s := d.Stats()
	if s.Reads == 0 || s.SyncOps == 0 {
		t.Error("stats not collected")
	}
}

func TestOptionsClamping(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 7}) // clamped to 1
	t0 := d.NewThread()
	v := d.NewVarID()
	d.Write(t0, v, 1)
	if d.Stats().VarsTracked != 1 {
		t.Error("rate not clamped to 1 (no tracking happened)")
	}
	d2 := pacer.New(pacer.Options{SamplingRate: -3}) // clamped to 0
	t2 := d2.NewThread()
	d2.Write(t2, v, 1)
	if d2.Stats().VarsTracked != 0 {
		t.Error("rate not clamped to 0")
	}
}

func TestIDAllocation(t *testing.T) {
	d := pacer.New(pacer.Options{})
	if a, b := d.NewVarID(), d.NewVarID(); a == b {
		t.Error("duplicate var ids")
	}
	if a, b := d.NewLockID(), d.NewLockID(); a == b {
		t.Error("duplicate lock ids")
	}
	if a, b := d.NewVolatileID(), d.NewVolatileID(); a == b {
		t.Error("duplicate volatile ids")
	}
	if a, b := d.NewThread(), d.NewThread(); a == b {
		t.Error("duplicate thread ids")
	}
}

func TestBudgetControllerThrottles(t *testing.T) {
	// An application that is almost pure detector work and a tiny budget:
	// the controller must throttle the rate far below the starting rate.
	d := pacer.New(pacer.Options{
		SamplingRate: 1.0,
		PeriodOps:    256,
		Budget:       pacer.BudgetOptions{TargetOverhead: 0.0001, MinRate: 0.001},
	})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	v := d.NewVarID()
	for i := 0; i < 50_000; i++ {
		d.Write(t0, v, 1)
		d.Read(t1, v, 2)
	}
	if r := d.CurrentRate(); r > 0.5 {
		t.Errorf("rate %.3f did not throttle under a tiny budget", r)
	}
	if d.ObservedOverhead() <= 0 {
		t.Error("overhead not measured")
	}
}

func TestBudgetControllerRespectsBounds(t *testing.T) {
	d := pacer.New(pacer.Options{
		SamplingRate: 0.05,
		PeriodOps:    64,
		Budget:       pacer.BudgetOptions{TargetOverhead: 0.0001, MinRate: 0.01, MaxRate: 0.2},
	})
	t0 := d.NewThread()
	v := d.NewVarID()
	for i := 0; i < 20_000; i++ {
		d.Write(t0, v, 1)
	}
	if r := d.CurrentRate(); r < 0.01 || r > 0.2 {
		t.Errorf("rate %.4f escaped [MinRate, MaxRate]", r)
	}
}

func TestDescribeWithLabels(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 1.0})
	v := d.NewVarID()
	d.VarLabel(v, "account.balance")
	d.SiteLabel(10, "deposit()")
	d.SiteLabel(20, "audit()")
	r := pacer.Race{Var: v, Kind: pacer.WriteRead, FirstThread: 0, SecondThread: 1, FirstSite: 10, SecondSite: 20}
	got := d.Describe(r)
	want := "data race on account.balance: write at deposit() (thread 0) vs read at audit() (thread 1)"
	if got != want {
		t.Errorf("Describe = %q\nwant %q", got, want)
	}
	// Unlabeled fall back to numeric identifiers.
	r2 := pacer.Race{Var: 99, Kind: pacer.WriteWrite, FirstSite: 1, SecondSite: 2}
	if got := d.Describe(r2); got != "data race on var 99: write at site 1 (thread 0) vs write at site 2 (thread 0)" {
		t.Errorf("fallback Describe = %q", got)
	}
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Generations of fork, locked work and join: the joiner reuses the joined
// child's identifier, so clocks stay three threads wide and the heap stays
// flat however many threads have lived.
func TestReuseThreadIDsKeepsWidthBounded(t *testing.T) {
	const gens = 10000
	d := pacer.New(pacer.Options{SamplingRate: 0.5, PeriodOps: 16})
	main := d.NewThread()
	v := d.NewVarID()
	mu := d.NewMutex()
	width := main + 1
	var mid uint64
	for gen := 0; gen < gens; gen++ {
		if gen == gens/10 {
			mid = heapAfterGC()
		}
		w := d.Fork(main)
		width = max(width, w+1)
		mu.Lock(w)
		d.Read(w, v, 1)
		d.Write(w, v, 2)
		mu.Unlock(w)
		d.Join(main, w)
		mu.Lock(main)
		mu.Unlock(main)
	}
	if width > 3 {
		t.Errorf("clock width %d after %d generations, want at most 3", width, gens)
	}
	// Without reuse each generation's clock is one thread wider than the
	// last and every one stays alive: hundreds of megabytes by the end.
	if end := heapAfterGC(); end > mid+1<<20 {
		t.Errorf("heap grew from %d to %d bytes over %d generations", mid, end, gens-gens/10)
	}
}

func TestReuseThreadIDsStillDetectsRaces(t *testing.T) {
	const gens = 10000
	found := 0
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(pacer.Race) { found++ }})
	main := d.NewThread()
	v := d.NewVarID()
	width := main + 1
	for gen := 0; gen < gens; gen++ {
		w := d.Fork(main)
		width = max(width, w+1)
		d.Write(w, v, pacer.SiteID(100+gen%50))
		d.Join(main, w)
	}
	// Each generation's write is ordered after the previous via main's
	// join and fork, so no races yet.
	if found != 0 {
		t.Fatalf("ordered generational writes raced (%d)", found)
	}
	if width > 3 {
		t.Errorf("clock width %d after %d generations, want at most 3", width, gens)
	}
	// A thread forked by main is ordered after the last generation; a
	// root thread is concurrent with everything and races with both.
	other := d.Fork(main)
	d.Write(other, v, 999)
	if found != 0 {
		t.Fatalf("write ordered after the last generation raced (%d)", found)
	}
	loner := d.NewThread()
	d.Write(loner, v, 1000)
	if found != 1 {
		t.Errorf("root thread's write: %d races, want 1 (with the reused slot's write)", found)
	}
}

func TestWaitGroupOrdersWork(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(r pacer.Race) { t.Errorf("false positive %v", r) }})
	main := d.NewThread()
	wg := d.NewWaitGroup()
	v := d.NewVarID()
	var hwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		tid := d.Fork(main)
		wg.Add(1)
		hwg.Add(1)
		go func(tid pacer.ThreadID, i int) {
			defer hwg.Done()
			d.Write(tid, v+pacer.VarID(i+1), pacer.SiteID(i))
			wg.Done(tid)
		}(tid, i)
	}
	hwg.Wait()
	wg.Wait(main)
	for i := 0; i < 4; i++ {
		d.Read(main, v+pacer.VarID(i+1), 99) // ordered by the wait group
	}
}

func TestWaitGroupWithoutWaitStillRaces(t *testing.T) {
	races := 0
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(pacer.Race) { races++ }})
	main := d.NewThread()
	w := d.Fork(main)
	v := d.NewVarID()
	d.Write(w, v, 1)
	d.Read(main, v, 2) // no Wait: races
	if races != 1 {
		t.Fatalf("races = %d, want 1", races)
	}
}

func TestRWMutexSemantics(t *testing.T) {
	var mu sync.Mutex
	races := 0
	d := pacer.New(pacer.Options{SamplingRate: 1.0, OnRace: func(pacer.Race) {
		mu.Lock()
		races++
		mu.Unlock()
	}})
	main := d.NewThread()
	r1 := d.Fork(main)
	r2 := d.Fork(main)
	rw := d.NewRWMutex()
	data := d.NewVarID()

	// Writer publishes; readers consume under RLock: no races.
	rw.Lock(main)
	d.Write(main, data, 1)
	rw.Unlock(main)
	rw.RLock(r1)
	d.Read(r1, data, 2)
	rw.RUnlock(r1)
	rw.RLock(r2)
	d.Read(r2, data, 3)
	rw.RUnlock(r2)
	// A writer after the readers is ordered after their reads.
	rw.Lock(main)
	d.Write(main, data, 4)
	rw.Unlock(main)
	if races != 0 {
		t.Fatalf("rwmutex-ordered accesses raced %d times", races)
	}

	// A read outside any lock races with both the preceding and the next
	// write.
	d.Read(r1, data, 5)
	rw.Lock(main)
	d.Write(main, data, 6)
	rw.Unlock(main)
	if races != 2 {
		t.Fatalf("unprotected read: races = %d, want 2", races)
	}
}

func TestRWMutexConcurrentUse(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 0.5, PeriodOps: 64})
	main := d.NewThread()
	rw := d.NewRWMutex()
	c := pacer.NewShared(d, 0)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		tid := d.Fork(main)
		wg.Add(1)
		go func(tid pacer.ThreadID, g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%3 == 0 {
					rw.Lock(tid)
					c.Update(tid, 1, func(x int) int { return x + 1 })
					rw.Unlock(tid)
				} else {
					rw.RLock(tid)
					c.Load(tid, 2)
					rw.RUnlock(tid)
				}
			}
		}(tid, g)
	}
	wg.Wait()
}

func TestAggregatorDedupAndCounts(t *testing.T) {
	agg := pacer.NewAggregator()
	r1 := agg.Reporter("host-1")
	r2 := agg.Reporter("host-2")
	race := pacer.Race{Var: 7, Kind: pacer.WriteWrite, FirstSite: 10, SecondSite: 20}
	flipped := pacer.Race{Var: 7, Kind: pacer.WriteWrite, FirstSite: 20, SecondSite: 10}
	other := pacer.Race{Var: 8, Kind: pacer.WriteRead, FirstSite: 30, SecondSite: 40}
	r1(race)
	r1(race)
	r2(flipped) // same distinct race, sites reversed
	r2(other)
	if agg.Distinct() != 2 {
		t.Fatalf("distinct = %d, want 2", agg.Distinct())
	}
	races := agg.Races()
	if races[0].Count != 3 || races[0].Instances != 2 || races[0].FirstInstance != "host-1" {
		t.Errorf("top race stats wrong: %+v", races[0])
	}
	if races[1].Count != 1 || races[1].Instances != 1 {
		t.Errorf("second race stats wrong: %+v", races[1])
	}
	if got := races[0].String(); !strings.Contains(got, "3 report(s) from 2 instance(s)") {
		t.Errorf("String = %q", got)
	}
}

func TestAggregatorAcrossFleet(t *testing.T) {
	// A fleet of low-rate instances aggregates to near-certain detection.
	agg := pacer.NewAggregator()
	const instances = 150
	var wg sync.WaitGroup
	for inst := 0; inst < instances; inst++ {
		wg.Add(1)
		go func(inst int) {
			defer wg.Done()
			d := pacer.New(pacer.Options{
				SamplingRate: 0.10,
				PeriodOps:    32,
				Seed:         int64(inst*2654435761 + 11),
				OnRace:       agg.Reporter(fmt.Sprintf("inst-%d", inst)),
			})
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			v := d.NewVarID()
			pad := d.NewVarID()
			for j := 0; j < 40+(inst*13)%100; j++ {
				d.Read(t0, pad, 9)
			}
			d.Write(t0, v, 1)
			d.Write(t1, v, 2)
		}(inst)
	}
	wg.Wait()
	if agg.Distinct() != 1 {
		t.Fatalf("distinct = %d, want 1", agg.Distinct())
	}
	top := agg.Races()[0]
	// ~10% of 150 instances ≈ 15 expected; accept a broad band.
	if top.Instances < 4 || top.Instances > 40 {
		t.Errorf("fleet detection count %d outside plausible band", top.Instances)
	}
}
