// Differential tests for the metadata arena (Options.Arena): the arena is
// an allocator swap, so an arena-backed detector must report race-for-race
// identical results to the heap-backed one — live and concurrent against a
// serialized replay, and replayed trace against replayed trace.
package dtest_test

import (
	"testing"

	"pacer"
	"pacer/internal/backends"
	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/dtest"
	"pacer/internal/event"
)

func withArena(o *pacer.Options) { o.Arena = true }

// replayArenaSerial replays tr through a serialized arena-backed core, the
// arena-side reference detector.
func replayArenaSerial(tr event.Trace) []detector.Race {
	c := dtest.Run(tr, func(rep detector.Reporter) detector.Detector {
		return core.NewWithOptions(rep, shardbase.Config{Arena: true}, core.Options{})
	})
	return c.Dynamic
}

func requireSameKeys(t *testing.T, label string, got, want map[dtest.RaceKey]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct race keys vs %d", label, len(got), len(want))
	}
	for k, n := range got {
		if want[k] != n {
			t.Fatalf("%s: key %+v reported %d vs %d times", label, k, n, want[k])
		}
	}
}

// TestDifferentialArenaConcurrent runs the concurrent hammer workload with
// the arena enabled and checks its recorded linearization against BOTH
// serialized references: the heap-backed core (the arena changes nothing
// algorithmic) and the arena-backed core (the live concurrent arena path
// matches its own serialized execution).
func TestDifferentialArenaConcurrent(t *testing.T) {
	for _, rate := range []float64{1.0, 0.3, 0.05} {
		for seed := int64(1); seed <= 3; seed++ {
			trace, races := recordedRunAlgo("pacer", rate, seed, 6, 900, withArena)
			live := dtest.KeySet(append([]detector.Race(nil), races...))
			heapRef := dtest.KeySet(replaySerial(trace))
			arenaRef := dtest.KeySet(replayArenaSerial(trace))
			requireSameKeys(t, "live(arena) vs heap replay", live, heapRef)
			requireSameKeys(t, "arena replay vs heap replay", arenaRef, heapRef)
			if rate == 1.0 && len(live) == 0 {
				t.Fatalf("seed %d: fully sampled arena run found no races", seed)
			}
		}
	}
}

// TestDifferentialArenaRecordedTraces replays identical recorded concurrent
// traces (produced by the heap-backed front-end) through heap and arena
// serialized cores: same trace in, same race multiset out.
func TestDifferentialArenaRecordedTraces(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		trace, _ := recordedRun(0.4, seed, 6, 800)
		heapRef := dtest.KeySet(replaySerial(trace))
		arenaRef := dtest.KeySet(replayArenaSerial(trace))
		requireSameKeys(t, "arena vs heap on recorded trace", arenaRef, heapRef)
	}
}

// TestDifferentialArenaPrecision audits the arena-backed concurrent run
// against the exact happens-before relation: every report must still be a
// true race (a recycled slab that leaked stale clock values would produce
// false positives here).
func TestDifferentialArenaPrecision(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		trace, races := recordedRunAlgo("pacer", 0.5, seed, 6, 700, withArena)
		oracle := dtest.NewHBOracle(trace)
		for _, r := range races {
			if !oracle.TrueRace(r) {
				t.Errorf("seed %d: arena-backed detector reported a false race %+v", seed, r)
			}
		}
	}
}

// TestDifferentialArenaShardedBackends covers the full
// {serialized, sharded} × {heap, arena} square for every sharded arena
// backend besides the PACER core (fasttrack with the owned-access path
// live, djit+, literace, o1samples): a concurrent arena-backed live run
// is recorded and replayed through serialized same-backend references on
// both allocators — all three race multisets must coincide.
func TestDifferentialArenaShardedBackends(t *testing.T) {
	for _, algo := range []string{"fasttrack", "djit", "literace", "o1samples"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				trace, races := recordedRunAlgo(algo, 1.0, seed, 4, 500, withArena)
				replay := func(arena bool) []detector.Race {
					c := dtest.Run(trace, func(rep detector.Reporter) detector.Detector {
						d, err := backends.New(algo, rep, backends.Config{
							Seed:   seed,
							Config: shardbase.Config{Arena: arena},
						})
						if err != nil {
							t.Fatalf("backend %q not in registry: %v", algo, err)
						}
						return d
					})
					return c.Dynamic
				}
				live := dtest.KeySet(append([]detector.Race(nil), races...))
				heapRef := dtest.KeySet(replay(false))
				arenaRef := dtest.KeySet(replay(true))
				requireSameKeys(t, algo+" live(arena,sharded) vs heap serialized replay", live, heapRef)
				requireSameKeys(t, algo+" arena serialized replay vs heap serialized replay", arenaRef, heapRef)
				if seed == 1 && len(live) == 0 {
					t.Fatalf("%s: fully sampled arena run found no races", algo)
				}
			}
		})
	}
}

// TestArenaStatsSurface checks the front-end surfaces arena occupancy: a
// run with churn must show recycles, and the heap-backed detector must
// report the arena as absent.
func TestArenaStatsSurface(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 0.5, PeriodOps: 64, Seed: 3, Arena: true})
	tid := d.NewThread()
	v := d.NewVarID()
	m := d.NewMutex()
	for i := 0; i < 20000; i++ {
		d.Write(tid, v, 1)
		if i%64 == 0 {
			m.Lock(tid)
			m.Unlock(tid)
		}
	}
	st := d.Stats()
	if !st.ArenaEnabled {
		t.Fatal("ArenaEnabled false on an arena-backed detector")
	}
	if st.ArenaRecycles == 0 {
		t.Fatalf("no recycles surfaced after metadata churn: %+v", st)
	}

	heap := pacer.New(pacer.Options{SamplingRate: 0.5})
	if hs := heap.Stats(); hs.ArenaEnabled || hs.ArenaRecycles != 0 {
		t.Fatalf("heap-backed detector claims arena stats: %+v", hs)
	}
}
