// Stress and statistical tests of the concurrent front-end through the
// public API. The stress tests are meant to run under `go test -race`
// (CI does) so the Go race detector audits the ingestion layer itself;
// their assertions check operation conservation — nothing the application
// issued is lost or double-counted across the lock-free fast path, the
// sharded slow path, and the serialized sync path.
package pacer_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"pacer"
	"pacer/internal/event"
)

// TestParallelStressStatsConservation hammers one detector from many
// goroutines with a fast-path-heavy mix and checks that Stats sees exactly
// the issued operation counts: Reads and Writes observed == issued.
func TestParallelStressStatsConservation(t *testing.T) {
	const goroutines = 8
	const opsPer = 4000
	d := pacer.New(pacer.Options{SamplingRate: 0.2, PeriodOps: 256, Seed: 3})
	main := d.NewThread()
	shared := d.NewVarID()
	m := d.NewMutex()
	var issuedReads, issuedWrites atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		tid := d.Fork(main)
		wg.Add(1)
		go func(tid pacer.ThreadID, g int) {
			defer wg.Done()
			private := d.NewVarID()
			for i := 0; i < opsPer; i++ {
				switch i % 8 {
				case 0:
					d.Write(tid, shared, pacer.SiteID(g))
					issuedWrites.Add(1)
				case 1:
					m.Lock(tid)
					d.Read(tid, shared, pacer.SiteID(g+100))
					m.Unlock(tid)
					issuedReads.Add(1)
				case 2, 3:
					d.Write(tid, private, pacer.SiteID(g+200))
					issuedWrites.Add(1)
				default:
					d.Read(tid, private, pacer.SiteID(g+300))
					issuedReads.Add(1)
				}
			}
		}(tid, g)
	}
	wg.Wait()
	s := d.Stats()
	if s.Reads != issuedReads.Load() {
		t.Errorf("Stats.Reads = %d, issued %d", s.Reads, issuedReads.Load())
	}
	if s.Writes != issuedWrites.Load() {
		t.Errorf("Stats.Writes = %d, issued %d", s.Writes, issuedWrites.Load())
	}
	if s.FastPathReads == 0 || s.FastPathWrites == 0 {
		t.Error("lock-free fast path never taken under a 0.2 rate")
	}
	if s.SyncOps == 0 {
		t.Error("sync ops not counted")
	}
}

// TestCounterCellSpillCounted: fast-path dismissals by thread identifiers
// that were never registered, so have no counter cell of their own, are
// still counted in Stats.
func TestCounterCellSpillCounted(t *testing.T) {
	const threads, opsPer = 4, 1000
	d := pacer.New(pacer.Options{SamplingRate: 0, PeriodOps: 64, Seed: 3})
	v := d.NewVarID()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(tid pacer.ThreadID) {
			defer wg.Done()
			for j := 0; j < opsPer; j++ {
				e := pacer.Event{Kind: event.Read, Thread: tid, Target: uint32(v)}
				if j%4 == 0 {
					e.Kind = event.Write
				}
				d.Apply(e)
			}
		}(pacer.ThreadID(100 + i))
	}
	wg.Wait()
	s := d.Stats()
	wantW := uint64(threads * opsPer / 4)
	wantR := uint64(threads*opsPer) - wantW
	if s.Reads != wantR || s.FastPathReads != wantR {
		t.Errorf("Reads %d, FastPathReads %d; want %d dismissed reads", s.Reads, s.FastPathReads, wantR)
	}
	if s.Writes != wantW || s.FastPathWrites != wantW {
		t.Errorf("Writes %d, FastPathWrites %d; want %d dismissed writes", s.Writes, s.FastPathWrites, wantW)
	}
}

// TestParallelStressAllPrimitives drives every public primitive — Read,
// Write, Mutex, RWMutex, WaitGroup, Atomic, Shared, Stats, Sampling —
// from concurrent goroutines while periods roll rapidly. The assertions
// are conservation and the data value itself; under -race this is also the
// memory-safety proof for the whole facade.
func TestParallelStressAllPrimitives(t *testing.T) {
	const goroutines = 8
	const iters = 300
	d := pacer.New(pacer.Options{SamplingRate: 0.4, PeriodOps: 64, Seed: 5, Shards: 16})
	main := d.NewThread()
	m := d.NewMutex()
	rw := d.NewRWMutex()
	wgD := d.NewWaitGroup()
	flag := pacer.NewAtomic(d, 0)
	counter := pacer.NewShared(d, 0)
	gauge := pacer.NewShared(d, 0)
	var issued atomic.Uint64 // reads + writes
	var hwg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		tid := d.Fork(main)
		wgD.Add(1)
		hwg.Add(1)
		go func(tid pacer.ThreadID, g int) {
			defer hwg.Done()
			private := d.NewVarID()
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					m.Lock(tid)
					counter.Update(tid, 1, func(x int) int { return x + 1 })
					m.Unlock(tid)
					issued.Add(2) // Update = read + write
				case 1:
					rw.RLock(tid)
					gauge.Load(tid, 2)
					rw.RUnlock(tid)
					issued.Add(1)
				case 2:
					rw.Lock(tid)
					gauge.Store(tid, 3, i)
					rw.Unlock(tid)
					issued.Add(1)
				case 3:
					flag.Store(tid, i)
					_ = d.Sampling()
				default:
					d.Write(tid, private, 4)
					d.Read(tid, private, 5)
					issued.Add(2)
				}
			}
			wgD.Done(tid)
		}(tid, g)
	}
	// Main polls Stats concurrently with the workers.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = d.Stats()
			}
		}
	}()
	hwg.Wait()
	close(done)
	wgD.Wait(main)
	if got := counter.Load(main, 9); got != goroutines*iters/5 {
		t.Errorf("counter = %d, want %d", got, goroutines*iters/5)
	}
	s := d.Stats()
	if s.Reads+s.Writes != issued.Load()+1 { // +1: the counter.Load above
		t.Errorf("Reads+Writes = %d, issued %d", s.Reads+s.Writes, issued.Load()+1)
	}
}

// TestSerializedModeStillThreadSafe checks the Serialized compatibility
// mode under the same concurrent load (it should simply be slower, never
// unsafe or lossy).
func TestSerializedModeStillThreadSafe(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 0.3, PeriodOps: 128, Serialized: true})
	main := d.NewThread()
	v := d.NewVarID()
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		tid := d.Fork(main)
		wg.Add(1)
		go func(tid pacer.ThreadID) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				d.Write(tid, v, 1)
				issued.Add(1)
			}
		}(tid)
	}
	wg.Wait()
	if s := d.Stats(); s.Writes != issued.Load() {
		t.Errorf("serialized mode lost writes: %d != %d", s.Writes, issued.Load())
	}
}

// TestStatisticalProportionality is the paper's central guarantee measured
// empirically through the public API: across many independent trials with
// fixed seeds, a one-shot race is detected with probability equal to the
// sampling rate. The trial count puts a binomial confidence interval
// around the expected rate; the test fails only outside ±4.5σ
// (false-failure probability ≈ 7e-6).
func TestStatisticalProportionality(t *testing.T) {
	const rate = 0.2
	const trials = 2000
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
		pad := d.NewVarID()
		// Deterministic per-trial padding places the racy pair at a varying
		// offset within the period structure.
		for j := 0; j < 30+(i*53)%190; j++ {
			d.Read(t0, pad, 9)
		}
		d.Write(t0, v, 1)
		d.Write(t1, v, 2)
		if got {
			detected++
		}
	}
	p := float64(detected) / trials
	sigma := math.Sqrt(rate * (1 - rate) / trials)
	if math.Abs(p-rate) > 4.5*sigma {
		t.Errorf("detection rate %.4f outside %.2f ± %.4f (4.5σ, %d trials)",
			p, rate, 4.5*sigma, trials)
	}
}
