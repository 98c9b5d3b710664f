// Stress tests for the sharded FASTTRACK mount: always-on detection driven
// through the concurrent front-end's striped reader-writer path and the
// lock-free same-epoch dismissal. Run under `go test -race` (CI does) so
// the Go race detector audits the sharded ingestion itself; the assertions
// check operation conservation across all three ingestion paths and the
// always-sampling discipline (Sampling stays true; dismissals are only the
// provably-no-op same-epoch accesses).
package pacer_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"pacer"
)

// TestFastTrackShardedStressStatsConservation hammers a FASTTRACK-mounted
// detector from many goroutines and checks that Stats sees exactly the
// issued operation counts — nothing is lost or double-counted across the
// lock-free same-epoch dismissals, the sharded slow path, and the
// serialized sync path — and that the same-epoch fast path actually fires
// (repeated private accesses within an epoch are its bread and butter).
func TestFastTrackShardedStressStatsConservation(t *testing.T) {
	// The subtest is named for the heap, where every clock lives.
	t.Run("heap", func(t *testing.T) {
		const goroutines = 8
		const opsPer = 4000
		var raceCount atomic.Uint64
		d := pacer.New(pacer.Options{
			Algorithm: "fasttrack",
			PeriodOps: 256,
			Seed:      3,
			Shards:    8, // small shard count: more same-shard contention
			OnRace:    func(pacer.Race) { raceCount.Add(1) },
		})
		if d.ShardCount() != 8 {
			t.Fatalf("ShardCount = %d, want 8: FASTTRACK should mount sharded", d.ShardCount())
		}
		if !d.Sampling() {
			t.Fatal("always-on backend must report Sampling() == true")
		}
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
					case 0: // unsynchronized shared write: race-prone
						d.Write(tid, shared, pacer.SiteID(g))
						issuedWrites.Add(1)
					case 1:
						m.Lock(tid)
						d.Read(tid, shared, pacer.SiteID(g+100))
						m.Unlock(tid)
						issuedReads.Add(1)
					case 2, 3: // private writes: distinct shards in parallel
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
			t.Errorf("same-epoch fast path never fired: %d reads, %d writes dismissed",
				s.FastPathReads, s.FastPathWrites)
		}
		if s.SyncOps == 0 {
			t.Error("sync ops not counted")
		}
		if s.Races == 0 || raceCount.Load() == 0 {
			t.Error("unsynchronized shared writes from 8 goroutines produced no race report")
		}
		if s.Races != raceCount.Load() {
			t.Errorf("Stats.Races = %d, OnRace saw %d", s.Races, raceCount.Load())
		}
		if s.VarsTracked == 0 || s.MetadataWords == 0 {
			t.Error("always-on detection tracked no metadata")
		}
	})
}

// TestFastTrackShardedMatchesSerializedRaces runs the identical
// single-threaded operation sequence through a serialized and a sharded
// FASTTRACK mount: with one thread the two paths must report the same
// races in the same order.
func TestFastTrackShardedMatchesSerializedRaces(t *testing.T) {
	run := func(serialized bool) []pacer.Race {
		var races []pacer.Race
		d := pacer.New(pacer.Options{
			Algorithm:  "fasttrack",
			Serialized: serialized,
			Seed:       7,
			OnRace:     func(r pacer.Race) { races = append(races, r) },
		})
		t0 := d.NewThread()
		t1 := d.Fork(t0)
		v := d.NewVarID()
		w := d.NewVarID()
		site := pacer.SiteID(1)
		for i := 0; i < 500; i++ {
			d.Read(t0, w, site)
			site++
			if i%71 == 0 {
				d.Write(t0, v, site)
				site++
				d.Write(t1, v, site)
				site++
				d.Read(t0, v, site)
				site++
			}
		}
		return races
	}
	ser, conc := run(true), run(false)
	if len(ser) != len(conc) {
		t.Fatalf("race counts differ: serialized %d, sharded %d", len(ser), len(conc))
	}
	for i := range ser {
		if ser[i] != conc[i] {
			t.Fatalf("race %d differs: serialized %+v, sharded %+v", i, ser[i], conc[i])
		}
	}
	if len(ser) == 0 {
		t.Fatal("workload produced no races")
	}
}

// TestFastTrackTrimEpochRepublication pins the SmartTrack-style
// republication trim against its failure mode. The trim stops publishing
// the thread's epoch per access (a seed-once check) on the argument that
// every operation advancing the thread's own component republishes; if a
// release ever skipped that, the same-epoch probe would dismiss a
// new-epoch write against the old epoch's mirror, leave the stale write
// epoch in place, and silently lose the cross-thread race below. Exactly
// one write/write race must surface in every cell.
func TestFastTrackTrimEpochRepublication(t *testing.T) {
	for _, serialized := range []bool{true, false} {
		var races []pacer.Race
		d := pacer.New(pacer.Options{
			Algorithm:  "fasttrack",
			Serialized: serialized,
			Seed:       11,
			OnRace:     func(r pacer.Race) { races = append(races, r) },
		})
		t0 := d.NewThread()
		t1 := d.Fork(t0)
		x := d.NewVarID()
		m := d.NewMutex()
		d.Write(t0, x, 1) // epoch e0: seeds the publication
		d.Write(t0, x, 1) // same-epoch: the mirror must serve this one
		m.Lock(t0)
		m.Unlock(t0)      // release advances t0's epoch to e1 and must republish
		d.Write(t0, x, 2) // e1 write: a stale mirror would dismiss this
		m.Lock(t1)        // t1 learns e0 (the clock before the release's inc)
		m.Unlock(t1)
		d.Write(t1, x, 3) // races with the e1 write, not the e0 one
		if len(races) != 1 {
			t.Errorf("serialized=%v: got %d races, want exactly 1 (stale published epoch hides the e1 write)",
				serialized, len(races))
		}
	}
}

// TestFastTrackTrimStressStatsConservation is the trim's stress companion:
// an acquire-heavy mix (most lock operations teach the thread nothing new)
// where per-access republication used to be the thing keeping the
// published epochs current. With the trim, epochs are republished only at
// the operations that advance them — so the same-epoch fast path must keep
// firing between sync operations, every issued operation must still be
// accounted for exactly once across the three ingestion paths, and the
// race-free construction must stay silent. `go test -race` audits the
// sharded ingestion itself.
func TestFastTrackTrimStressStatsConservation(t *testing.T) {
	// The subtest is named for the heap, where every clock lives.
	t.Run("flat/heap", func(t *testing.T) {
		const goroutines = 8
		const opsPer = 3000
		d := pacer.New(pacer.Options{
			Algorithm: "fasttrack",
			Seed:      13,
			Shards:    8,
			OnRace:    func(r pacer.Race) { t.Errorf("false race on race-free workload: %+v", r) },
		})
		main := d.NewThread()
		shared := d.NewVarID()
		handoff := d.NewMutex()
		var issuedReads, issuedWrites, issuedSyncs atomic.Uint64
		d.Write(main, shared, 1) // ordered before every fork
		issuedWrites.Add(1)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			tid := d.Fork(main)
			wg.Add(1)
			go func(tid pacer.ThreadID, g int) {
				defer wg.Done()
				mine := d.NewMutex() // uncontended: acquires learn nothing
				private := d.NewVarID()
				for i := 0; i < opsPer; i++ {
					switch i % 8 {
					case 0: // redundant acquire/release churn
						mine.Lock(tid)
						mine.Unlock(tid)
						issuedSyncs.Add(2)
					case 1: // cross-thread ordered read of the pre-fork write
						handoff.Lock(tid)
						d.Read(tid, shared, pacer.SiteID(g+100))
						handoff.Unlock(tid)
						issuedReads.Add(1)
						issuedSyncs.Add(2)
					case 2, 3: // private writes: same-epoch after the first
						d.Write(tid, private, pacer.SiteID(g+200))
						issuedWrites.Add(1)
					default: // private reads: same-epoch fodder
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
		// Fork/join bookkeeping adds sync ops beyond the mutex traffic;
		// conservation here is "at least what we issued, never lost".
		if s.SyncOps < issuedSyncs.Load() {
			t.Errorf("Stats.SyncOps = %d, issued %d mutex ops", s.SyncOps, issuedSyncs.Load())
		}
		if s.FastPathReads == 0 || s.FastPathWrites == 0 {
			t.Errorf("same-epoch fast path stopped firing under the trim: %d reads, %d writes dismissed",
				s.FastPathReads, s.FastPathWrites)
		}
		if s.Races != 0 {
			t.Errorf("Stats.Races = %d on a race-free workload", s.Races)
		}
	})
}

// TestOwnedStressStatsConservation hammers the owned-access CAS path: the
// workload is almost entirely reads of variables shared by every
// goroutine, whose multi-entry read maps publish no epoch mirror — the
// same-epoch dismissal cannot serve them, so every lock-free dismissal
// here is an ownership claim (or, early on, a single-entry mirror hit).
// The assertions pin conservation — CAS dismissals and slow-path analyses
// must sum to exactly the issued counts — and that the lock-free side
// carries a meaningful share of the load. The workload is race-free by
// construction (the only writes happen before the forks), so any report
// would be a false positive from a torn owned update.
func TestOwnedStressStatsConservation(t *testing.T) {
	// The subtest is named for the heap, where every clock lives.
	t.Run("heap", func(t *testing.T) {
		const goroutines = 8
		const opsPer = 4000
		d := pacer.New(pacer.Options{
			Algorithm: "fasttrack",
			Seed:      5,
			Shards:    8,
			OnRace:    func(r pacer.Race) { t.Errorf("false race on read-only workload: %+v", r) },
		})
		main := d.NewThread()
		shared := make([]pacer.VarID, 4)
		for i := range shared {
			shared[i] = d.NewVarID()
			d.Write(main, shared[i], 1) // ordered before every fork
		}
		m := d.NewMutex()
		var issuedReads atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			tid := d.Fork(main)
			wg.Add(1)
			go func(tid pacer.ThreadID, g int) {
				defer wg.Done()
				for i := 0; i < opsPer; i++ {
					if i%512 == 511 { // epoch churn: republication keeps claims valid
						m.Lock(tid)
						m.Unlock(tid)
						continue
					}
					d.Read(tid, shared[i%len(shared)], pacer.SiteID(g+1))
					issuedReads.Add(1)
				}
			}(tid, g)
		}
		wg.Wait()
		s := d.Stats()
		if s.Reads != issuedReads.Load() {
			t.Errorf("Stats.Reads = %d, issued %d", s.Reads, issuedReads.Load())
		}
		if s.FastPathReads < issuedReads.Load()/4 {
			t.Errorf("owned fast path carried %d of %d shared reads — CAS claims are not firing",
				s.FastPathReads, issuedReads.Load())
		}
	})
}
