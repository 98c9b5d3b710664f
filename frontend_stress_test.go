package pacer_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pacer"
)

// TestFrontEndStress hammers a PACER detector from many goroutines (run
// under -race in CI) with private and shared accesses, lock-guarded
// writes and volatile traffic, across sampling periods short enough that
// metadata is created and discarded throughout. Every access must be
// counted once, and every race reported once.
func TestFrontEndStress(t *testing.T) {
	var raceCount, issuedReads, issuedWrites atomic.Uint64
	d := pacer.New(pacer.Options{
		SamplingRate: 0.3,
		PeriodOps:    256,
		Seed:         7,
		Shards:       8,
		OnRace:       func(pacer.Race) { raceCount.Add(1) },
	})
	main := d.NewThread()
	shared := make([]pacer.VarID, 8)
	for i := range shared {
		shared[i] = d.NewVarID()
	}
	locks := []*pacer.Mutex{d.NewMutex(), d.NewMutex()}
	flag := pacer.NewAtomic(d, 0)

	const goroutines, opsPer = 8, 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		tid := d.Fork(main)
		wg.Add(1)
		go func(tid pacer.ThreadID, g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			private := []pacer.VarID{d.NewVarID(), d.NewVarID()}
			for i := 0; i < opsPer; i++ {
				s := pacer.SiteID(i + 1)
				switch r := rng.Intn(100); {
				case r < 50:
					v := private[rng.Intn(len(private))]
					if rng.Intn(3) == 0 {
						d.Write(tid, v, s)
						issuedWrites.Add(1)
					} else {
						d.Read(tid, v, s)
						issuedReads.Add(1)
					}
				case r < 80:
					v := shared[rng.Intn(len(shared))]
					if rng.Intn(2) == 0 {
						d.Write(tid, v, s)
						issuedWrites.Add(1)
					} else {
						d.Read(tid, v, s)
						issuedReads.Add(1)
					}
				case r < 95:
					m := locks[rng.Intn(len(locks))]
					m.Lock(tid)
					d.Write(tid, shared[rng.Intn(len(shared))], s)
					issuedWrites.Add(1)
					m.Unlock(tid)
				default:
					if rng.Intn(2) == 0 {
						flag.Store(tid, i)
					} else {
						flag.Load(tid)
					}
				}
			}
		}(tid, g)
	}
	wg.Wait()

	st := d.Stats()
	if st.Reads != issuedReads.Load() || st.Writes != issuedWrites.Load() {
		t.Errorf("Stats counts %d reads, %d writes; issued %d, %d",
			st.Reads, st.Writes, issuedReads.Load(), issuedWrites.Load())
	}
	if st.Races == 0 || st.Races != raceCount.Load() {
		t.Errorf("Stats.Races = %d, OnRace saw %d; unguarded shared writes must race", st.Races, raceCount.Load())
	}
	if st.SlowJoins+st.FastJoins == 0 || st.DeepCopies+st.ShallowCopies == 0 {
		t.Errorf("synchronization never reached the clocks: %+v", st)
	}
}
