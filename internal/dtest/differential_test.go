// Differential tests of the concurrent public front-end against the
// serialized core detector: the front-end records its operations through
// Options.TraceSink, the recorded linearization is replayed through a
// fresh single-threaded core.Detector, and the two race reports are
// compared. This is the correctness argument for the lock-free fast path
// and the sharded slow path — if either ever admitted an interleaving that
// no serial execution could produce, the replay would diverge.
package dtest_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pacer"
	"pacer/internal/backends"
	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/dtest"
	"pacer/internal/event"
)

// recordedRun hammers one detector from several goroutines through the
// public API with a trace sink attached, and returns the recorded
// linearization plus the races the live detector reported. Every data
// access carries a globally unique site, so a race report identifies a
// dynamic access pair and the HB oracle can audit it.
func recordedRun(rate float64, seed int64, goroutines, opsPer int) (event.Trace, []pacer.Race) {
	return recordedRunAlgo("pacer", rate, seed, goroutines, opsPer)
}

// recordedRunAlgo is recordedRun with the backend chosen by name — the
// same workload through the identical unified front-end, whatever is
// mounted behind it.
func recordedRunAlgo(algo string, rate float64, seed int64, goroutines, opsPer int) (event.Trace, []pacer.Race) {
	var (
		trace  event.Trace // appends already serialized by the sink lock
		raceMu sync.Mutex
		races  []pacer.Race
		site   atomic.Uint32
	)
	d := pacer.New(pacer.Options{
		Algorithm:    algo,
		SamplingRate: rate,
		PeriodOps:    128,
		Seed:         seed,
		Shards:       8, // small shard count: more same-shard contention
		OnRace: func(r pacer.Race) {
			raceMu.Lock()
			races = append(races, r)
			raceMu.Unlock()
		},
		TraceSink: func(e pacer.Event) { trace = append(trace, e) },
	})
	main := d.NewThread()
	shared := make([]pacer.VarID, 6)
	for i := range shared {
		shared[i] = d.NewVarID()
	}
	locks := []*pacer.Mutex{d.NewMutex(), d.NewMutex()}
	flag := pacer.NewAtomic(d, 0)

	var wg sync.WaitGroup
	workers := make([]pacer.ThreadID, goroutines)
	for g := range workers {
		workers[g] = d.Fork(main)
	}
	for g, tid := range workers {
		wg.Add(1)
		go func(tid pacer.ThreadID, g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
			private := make([]pacer.VarID, 4)
			for i := range private {
				private[i] = d.NewVarID()
			}
			for i := 0; i < opsPer; i++ {
				s := pacer.SiteID(site.Add(1))
				switch r := rng.Intn(100); {
				case r < 45: // private accesses: fast-path fodder
					v := private[rng.Intn(len(private))]
					if rng.Intn(3) == 0 {
						d.Write(tid, v, s)
					} else {
						d.Read(tid, v, s)
					}
				case r < 75: // unsynchronized shared accesses: race-prone
					v := shared[rng.Intn(len(shared))]
					if rng.Intn(2) == 0 {
						d.Write(tid, v, s)
					} else {
						d.Read(tid, v, s)
					}
				case r < 92: // lock-guarded shared accesses
					m := locks[rng.Intn(len(locks))]
					m.Lock(tid)
					d.Write(tid, shared[rng.Intn(len(shared))], s)
					m.Unlock(tid)
				case r < 97: // volatile publication
					if rng.Intn(2) == 0 {
						flag.Store(tid, i)
					} else {
						flag.Load(tid)
					}
				default: // a blocking Stats call stresses the epoch lock
					_ = d.Stats()
				}
			}
		}(tid, g)
	}
	wg.Wait()
	for _, tid := range workers {
		d.Join(main, tid)
	}
	return trace, races
}

func replaySerial(tr event.Trace) []detector.Race {
	c := dtest.Run(tr, func(rep detector.Reporter) detector.Detector {
		return core.New(rep)
	})
	return c.Dynamic
}

// TestConcurrentFrontEndReplaysExactly is the core differential property:
// replaying the recorded linearization through the serialized reference
// detector reproduces the concurrent front-end's race reports exactly — as
// a multiset — at every sampling rate. In particular no report is emitted
// that the serialized detector could not emit.
func TestConcurrentFrontEndReplaysExactly(t *testing.T) {
	for _, rate := range []float64{1.0, 0.4, 0.05, 0} {
		for seed := int64(1); seed <= 4; seed++ {
			trace, races := recordedRun(rate, seed, 6, 900)
			ref := replaySerial(trace)
			live := make([]detector.Race, len(races))
			copy(live, races)
			got, want := dtest.KeySet(live), dtest.KeySet(ref)
			if len(got) != len(want) {
				t.Fatalf("rate %v seed %d: live has %d distinct keys, replay %d",
					rate, seed, len(got), len(want))
			}
			for k, n := range got {
				if want[k] != n {
					t.Fatalf("rate %v seed %d: key %+v reported %d times live, %d in replay",
						rate, seed, k, n, want[k])
				}
			}
			if rate == 1.0 && len(live) == 0 {
				t.Fatalf("seed %d: fully sampled concurrent run found no races", seed)
			}
		}
	}
}

// TestConcurrentFrontEndIsPrecise audits every live report against the
// exact happens-before relation of the recorded trace: each one must name
// two real accesses of the claimed kinds that are truly concurrent. This
// is the paper's precision guarantee, carried through the concurrent
// ingestion layer.
func TestConcurrentFrontEndIsPrecise(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		trace, races := recordedRun(0.5, seed, 6, 700)
		oracle := dtest.NewHBOracle(trace)
		for _, r := range races {
			if !oracle.TrueRace(r) {
				t.Errorf("seed %d: reported race %+v is not a true race of the recorded trace", seed, r)
			}
		}
	}
}

// TestSampledRacesAreSubsetOfFullTracking replays the recorded trace with
// sampling transitions stripped and a single leading sbegin — i.e. through
// a fully tracking serialized detector — and checks that everything the
// sampled concurrent run reported is accounted for there. Races are
// matched by (variable, kind, thread pair) with the second access compared
// up to epoch class, because attribution differs in two benign ways:
// PACER's non-sampling shallow copies do not advance thread clocks, so its
// "same epoch" first access can span many textbook epochs (a different
// first site than full tracking records), and full tracking early-returns
// on a repeated same-epoch second read that the sampled detector
// re-reports.
//
// Sampling does not only lose races, though: full tracking's epoch and
// read-map updates at accesses PACER leaves unsampled can change which
// earlier access it blames, so a sampled report occasionally has no exact
// match. Such a report passes only if it is a true race of the recorded
// trace and full tracking already reported a race on the same variable
// whose second access is no later in the trace.
func TestSampledRacesAreSubsetOfFullTracking(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		trace, races := recordedRun(0.3, seed, 6, 900)
		full := event.Trace{{Kind: event.SampleBegin}}
		pos := map[event.Site]int{} // trace position of each (uniquely sited) access
		for i, e := range trace {
			if e.Kind != event.SampleBegin && e.Kind != event.SampleEnd {
				full = append(full, e)
			}
			if e.Kind.IsAccess() {
				pos[e.Site] = i
			}
		}
		fullRaces := replaySerial(full)
		oracle := dtest.NewHBOracle(trace) // the oracle ignores sbegin/send
		for _, r := range races {
			lc, ok := oracle.ClassOf(r.Var, r.SecondSite)
			if !ok {
				t.Errorf("seed %d: race %+v names an unknown second access", seed, r)
				continue
			}
			found, flagged := false, false
			for _, fr := range fullRaces {
				if fr.Var != r.Var {
					continue
				}
				flagged = flagged || pos[fr.SecondSite] <= pos[r.SecondSite]
				if fr.Kind != r.Kind || fr.FirstThread != r.FirstThread || fr.SecondThread != r.SecondThread {
					continue
				}
				if fc, ok := oracle.ClassOf(fr.Var, fr.SecondSite); ok && fc == lc {
					found = true
					break
				}
			}
			if !found && !(flagged && oracle.TrueRace(r)) {
				t.Errorf("seed %d: sampled run reported %+v, absent from full tracking", seed, r)
			}
		}
	}
}

// TestDifferentialMountedBackends extends the differential property to
// every backend mountable behind the unified front-end: record a parallel
// run with the backend mounted via Options.Algorithm, then replay the
// recorded linearization through a freshly constructed instance of the
// same backend (built with the same registry config, so LITERACE's
// sampling RNG streams line up) and demand the identical race multiset.
// Non-sharded backends are serialized by the front-end, so the recorded
// order is the analysis order and replay must agree report for report.
func TestDifferentialMountedBackends(t *testing.T) {
	for _, algo := range []string{"fasttrack", "o1samples", "generic", "literace"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				trace, races := recordedRunAlgo(algo, 1.0, seed, 4, 500)
				c := dtest.Run(trace, func(rep detector.Reporter) detector.Detector {
					d, err := backends.New(algo, rep, backends.Config{Seed: seed})
					if err != nil {
						t.Fatalf("backend %q not in registry: %v", algo, err)
					}
					return d
				})
				live := make([]detector.Race, len(races))
				copy(live, races)
				got, want := dtest.KeySet(live), dtest.KeySet(c.Dynamic)
				if len(got) != len(want) {
					t.Fatalf("seed %d: live run has %d distinct keys, replay %d", seed, len(got), len(want))
				}
				for k, n := range got {
					if want[k] != n {
						t.Fatalf("seed %d: key %+v reported %d times live, %d in replay", seed, k, n, want[k])
					}
				}
				if seed == 1 && len(live) == 0 {
					t.Errorf("always-sampling backend %q found no races on the race-prone workload", algo)
				}
			}
		})
	}
}

// TestSerializedModeMatchesConcurrentReplay runs the same single-threaded
// operation sequence through a Serialized front-end and a concurrent one;
// with one thread the two must behave identically, roll for roll.
func TestSerializedModeMatchesConcurrentReplay(t *testing.T) {
	run := func(serialized bool) (event.Trace, int) {
		var trace event.Trace
		n := 0
		d := pacer.New(pacer.Options{
			SamplingRate: 0.3,
			PeriodOps:    64,
			Seed:         7,
			Serialized:   serialized,
			OnRace:       func(pacer.Race) { n++ },
			TraceSink:    func(e pacer.Event) { trace = append(trace, e) },
		})
		t0 := d.NewThread()
		t1 := d.Fork(t0)
		v := d.NewVarID()
		pad := d.NewVarID()
		site := pacer.SiteID(1)
		for i := 0; i < 2000; i++ {
			d.Read(t0, pad, site)
			site++
			if i%97 == 0 {
				d.Write(t0, v, site)
				site++
				d.Write(t1, v, site)
				site++
			}
		}
		return trace, n
	}
	serTrace, serRaces := run(true)
	conTrace, conRaces := run(false)
	if len(serTrace) != len(conTrace) {
		t.Fatalf("trace lengths differ: serialized %d, concurrent %d", len(serTrace), len(conTrace))
	}
	for i := range serTrace {
		if serTrace[i] != conTrace[i] {
			t.Fatalf("event %d differs: serialized %v, concurrent %v", i, serTrace[i], conTrace[i])
		}
	}
	if serRaces != conRaces {
		t.Fatalf("race counts differ: serialized %d, concurrent %d", serRaces, conRaces)
	}
}
