// Stress test for the sharded LITERACE mount: burst-sampled detection
// driven through the concurrent front-end, with the per-(method, thread)
// skip decisions consumed lock-free (the burst-skip stage) on striped
// sampler locks. Run under `go test -race` (CI does) so the Go race
// detector audits the striped sampler state itself; the assertions check
// operation conservation across the burst-skip dismissals and the sharded
// slow path.
package pacer_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"pacer"
	"pacer/internal/event"
)

// TestLiteRaceShardedStressStatsConservation hammers a LITERACE-mounted
// detector from many goroutines through Apply (the only surface carrying a
// Method, which the burst sampler keys on) and checks that Stats sees
// exactly the issued operation counts: burst skips consumed lock-free, the
// skips decided on the locked path, and the analyzed accesses must sum to
// the issued totals with nothing lost or double-counted. Hot methods drain
// their bursts fast, so the lock-free skip must actually fire.
func TestLiteRaceShardedStressStatsConservation(t *testing.T) {
	// The subtest is named for the heap, where every clock lives.
	t.Run("heap", func(t *testing.T) {
		const goroutines = 8
		const opsPer = 4000
		d := pacer.New(pacer.Options{
			Algorithm: "literace",
			Seed:      9,
			Shards:    8,
		})
		if d.ShardCount() != 8 {
			t.Fatalf("ShardCount = %d, want 8: LITERACE should mount sharded", d.ShardCount())
		}
		main := d.NewThread()
		shared := d.NewVarID()
		var issuedReads, issuedWrites atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			tid := d.Fork(main)
			wg.Add(1)
			go func(tid pacer.ThreadID, g int) {
				defer wg.Done()
				private := d.NewVarID()
				method := uint32(g % 3) // few hot methods: bursts drain, skips dominate
				for i := 0; i < opsPer; i++ {
					e := pacer.Event{
						Thread: tid,
						Site:   pacer.SiteID(g + 1),
						Method: method,
					}
					if i%16 == 0 { // race-prone shared write
						e.Kind, e.Target = event.Write, uint32(shared)
						issuedWrites.Add(1)
					} else {
						e.Kind, e.Target = event.Read, uint32(private)
						issuedReads.Add(1)
					}
					d.Apply(e)
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
		if s.FastPathReads == 0 {
			t.Error("lock-free burst skip never fired on a burst-drained workload")
		}
	})
}
