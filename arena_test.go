package pacer_test

import (
	"math/rand"
	"sync"
	"testing"

	"pacer"
)

// TestArenaFrontEndStress hammers an arena-backed detector from many
// goroutines (run under -race in CI): the refcount/recycle protocol must
// hold up under the concurrent sharded discipline, and the detector must
// end with a consistent arena accounting.
func TestArenaFrontEndStress(t *testing.T) {
	d := pacer.New(pacer.Options{
		SamplingRate: 0.3,
		PeriodOps:    256,
		Seed:         7,
		Shards:       8,
		Arena:        true,
		OnRace:       func(pacer.Race) {},
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
					} else {
						d.Read(tid, v, s)
					}
				case r < 80:
					v := shared[rng.Intn(len(shared))]
					if rng.Intn(2) == 0 {
						d.Write(tid, v, s)
					} else {
						d.Read(tid, v, s)
					}
				case r < 95:
					m := locks[rng.Intn(len(locks))]
					m.Lock(tid)
					d.Write(tid, shared[rng.Intn(len(shared))], s)
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
	if !st.ArenaEnabled {
		t.Fatal("arena not enabled")
	}
	if st.ArenaSlabsLive == 0 {
		t.Fatalf("no live slabs after a run with live threads: %+v", st)
	}
	if st.ArenaRecycles+st.ArenaMisses == 0 {
		t.Fatalf("arena saw no traffic: %+v", st)
	}
}
