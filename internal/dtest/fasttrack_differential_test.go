// Differential tests for the sharded FASTTRACK mount: the always-on
// backend now implements detector.Sharded, so the front-end drives it with
// the striped reader-writer discipline instead of the exclusive lock. The
// correctness argument is the same one the PACER core carries: the
// recorded linearization, replayed serialized, must reproduce the live
// race multiset exactly.
package dtest_test

import (
	"testing"

	"pacer"
	"pacer/internal/detector"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
)

// replayFrontendSerialized replays a recorded trace through a fresh
// front-end mounted in Options.Serialized mode — the classic single-mutex
// path — and returns the races it reports.
func replayFrontendSerialized(algo string, seed int64, tr event.Trace) []detector.Race {
	var races []detector.Race
	d := pacer.New(pacer.Options{
		Algorithm:  algo,
		Serialized: true,
		PeriodOps:  128,
		Seed:       seed,
		Shards:     8,
		OnRace:     func(r pacer.Race) { races = append(races, r) },
	})
	for _, e := range tr {
		d.Apply(e)
	}
	return races
}

// TestDifferentialShardedFastTrack records a parallel run with the sharded
// FASTTRACK mount and replays the linearization two ways — through the raw
// serialized backend and through a Serialized front-end mount — demanding
// the identical race multiset from both. Always-on detection admits no
// sampling noise: any divergence is a front-end interleaving bug.
func TestDifferentialShardedFastTrack(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		trace, races := recordedRunAlgo("fasttrack", 1.0, seed, 6, 700)
		live := make([]detector.Race, len(races))
		copy(live, races)
		got := dtest.KeySet(live)

		raw := dtest.Run(trace, func(rep detector.Reporter) detector.Detector {
			return fasttrack.New(rep)
		})
		serialized := replayFrontendSerialized("fasttrack", seed, trace)

		for name, ref := range map[string][]detector.Race{
			"raw backend":          raw.Dynamic,
			"serialized front-end": serialized,
		} {
			want := dtest.KeySet(ref)
			if len(got) != len(want) {
				t.Fatalf("seed %d: live sharded run has %d distinct keys, %s replay %d",
					seed, len(got), name, len(want))
			}
			for k, n := range got {
				if want[k] != n {
					t.Fatalf("seed %d: key %+v reported %d times live, %d in %s replay",
						seed, k, n, want[k], name)
				}
			}
		}
		if seed == 1 && len(live) == 0 {
			t.Fatal("fully tracking sharded FASTTRACK found no races on the race-prone workload")
		}
	}
}

// TestDifferentialBurstSkipLockFree records a parallel LITERACE run — whose
// burst sampler now serves skip decisions through the lock-free
// burst-skip stage — and replays the linearization through a
// fresh serialized LITERACE with the same seed. Per-(method, thread)
// decision streams are interleaving-independent by construction, so the
// race multisets must match exactly even though the live run dismissed
// cold-method accesses without the epoch lock.
func TestDifferentialBurstSkipLockFree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		// 2000 ops/goroutine drives every (method, thread) key well past the
		// default burst length, so the lock-free skip path actually fires.
		trace, races := recordedRunAlgo("literace", 1.0, seed, 4, 2000)
		live := make([]detector.Race, len(races))
		copy(live, races)
		serialized := replayFrontendSerialized("literace", seed, trace)
		got, want := dtest.KeySet(live), dtest.KeySet(serialized)
		if len(got) != len(want) {
			t.Fatalf("seed %d: live run has %d distinct keys, serialized replay %d", seed, len(got), len(want))
		}
		for k, n := range got {
			if want[k] != n {
				t.Fatalf("seed %d: key %+v reported %d times live, %d in serialized replay", seed, k, n, want[k])
			}
		}
	}
}
