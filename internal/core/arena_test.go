package core

import (
	"fmt"
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// reachableSlabs counts the arena slabs the detector can still reach: the
// distinct managed clocks referenced by threads, locks, and volatiles,
// plus one record per tracked variable (all records come from the pool
// when the arena is on). It is the ground truth Outstanding must match.
func (d *Detector) reachableSlabs() int {
	seen := make(map[*vclock.VC]bool)
	n := 0
	count := func(c *vclock.VC) {
		if c == nil || !c.Managed() || seen[c] {
			return
		}
		seen[c] = true
		n++
	}
	for _, tm := range d.threads {
		if tm != nil {
			count(tm.clock)
			count(tm.ver)
		}
	}
	for _, s := range d.locks {
		count(s.clock)
	}
	for _, s := range d.vols {
		count(s.clock)
	}
	return n + d.VarsTracked()
}

// checkRefcounts verifies that every managed clock's holder count equals
// the number of detector references to it — the refcount protocol's
// no-leak/no-early-recycle invariant in one pass.
func (d *Detector) checkRefcounts(t *testing.T) {
	t.Helper()
	refs := make(map[*vclock.VC]int)
	note := func(c *vclock.VC) {
		if c != nil && c.Managed() {
			refs[c]++
		}
	}
	for _, tm := range d.threads {
		if tm != nil {
			note(tm.clock)
			note(tm.ver)
		}
	}
	for _, s := range d.locks {
		note(s.clock)
	}
	for _, s := range d.vols {
		note(s.clock)
	}
	for c, want := range refs {
		if got := c.Holders(); got != want {
			t.Fatalf("clock %p: holders = %d, but %d detector references reach it", c, got, want)
		}
	}
}

func genTrace(seed int64, steps int) event.Trace {
	return event.Generate(event.GenConfig{
		Threads: 6, Vars: 24, Locks: 4, Volatiles: 2,
		Steps: steps, PGuarded: 0.4, PWrite: 0.45,
		PSample: 0.08, Seed: seed,
	})
}

// raceKey is a local multiset key (Var, Kind, sites); internal/dtest has a
// richer version, but importing it here would be an import cycle risk and
// the comparison needs nothing more.
type raceKey struct {
	v          event.Var
	kind       detector.RaceKind
	fs, ss     event.Site
	ft, second vclock.Thread
}

func raceMultiset(races []detector.Race) map[raceKey]int {
	m := make(map[raceKey]int)
	for _, r := range races {
		m[raceKey{r.Var, r.Kind, r.FirstSite, r.SecondSite, r.FirstThread, r.SecondThread}]++
	}
	return m
}

// TestArenaDifferentialCore proves the arena is allocation-only: on a
// spread of generated traces, the arena-backed detector reports the exact
// race multiset of the heap-backed one, with identical metadata accounting.
func TestArenaDifferentialCore(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		tr := genTrace(seed, 4000)

		heapC := detector.NewCollector()
		heap := NewWithOptions(heapC.Report, shardbase.Config{}, Options{})
		detector.Replay(heap, tr)

		arC := detector.NewCollector()
		ar := NewWithOptions(arC.Report, shardbase.Config{Arena: true}, Options{})
		detector.Replay(ar, tr)

		hm, am := raceMultiset(heapC.Dynamic), raceMultiset(arC.Dynamic)
		if len(hm) != len(am) || fmt.Sprint(hm) != fmt.Sprint(am) {
			t.Fatalf("seed %d: race multisets differ: heap=%v arena=%v", seed, hm, am)
		}
		for k, n := range hm {
			if am[k] != n {
				t.Fatalf("seed %d: race %+v: heap count %d, arena count %d", seed, k, n, am[k])
			}
		}
		if hw, aw := heap.MetadataWords(), ar.MetadataWords(); hw != aw {
			t.Fatalf("seed %d: MetadataWords differ: heap=%d arena=%d", seed, hw, aw)
		}
		if hv, av := heap.VarsTracked(), ar.VarsTracked(); hv != av {
			t.Fatalf("seed %d: VarsTracked differ: heap=%d arena=%d", seed, hv, av)
		}
	}
}

// TestArenaDifferentialAblations repeats the differential with each
// ablation knob, so the arena's retain/release sites are exercised on the
// deep-copy and no-discard paths too.
func TestArenaDifferentialAblations(t *testing.T) {
	ablations := []struct {
		shards int
		opts   Options
	}{
		{opts: Options{DisableSharing: true}},
		{opts: Options{DisableVersions: true}},
		{opts: Options{DisableDiscard: true}},
		{shards: 1},
	}
	for _, base := range ablations {
		for seed := int64(1); seed <= 8; seed++ {
			tr := genTrace(seed, 2500)
			heapC := detector.NewCollector()
			heapCfg := shardbase.Config{Shards: base.shards}
			detector.Replay(NewWithOptions(heapC.Report, heapCfg, base.opts), tr)

			arenaCfg := heapCfg
			arenaCfg.Arena = true
			arC := detector.NewCollector()
			detector.Replay(NewWithOptions(arC.Report, arenaCfg, base.opts), tr)

			hm, am := raceMultiset(heapC.Dynamic), raceMultiset(arC.Dynamic)
			for k, n := range hm {
				if am[k] != n {
					t.Fatalf("opts %+v seed %d: race %+v: heap %d, arena %d", base, seed, k, n, am[k])
				}
			}
			if len(am) != len(hm) {
				t.Fatalf("opts %+v seed %d: arena reported extra races", base, seed)
			}
		}
	}
}

// TestArenaInvariantLedger replays fuzzed traces with the debug ledger on
// and checks, at sampling boundaries and at the end, that the arena's
// outstanding-slab count equals the detector's reachable metadata: a leak
// (released object still counted) or double free (ledger panic) fails.
func TestArenaInvariantLedger(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		d := NewWithOptions(nil, shardbase.Config{Arena: true, ArenaDebug: true, Shards: 8}, Options{})
		tr := genTrace(seed*31, 5000)
		for i, e := range tr {
			detector.Apply(d, e)
			if i%977 == 0 || e.Kind == event.SampleEnd {
				out, ok := d.Arena().Outstanding()
				if !ok {
					t.Fatal("debug ledger not enabled")
				}
				if want := d.reachableSlabs(); out != want {
					t.Fatalf("seed %d event %d (%v): outstanding=%d reachable=%d (leak or early recycle)",
						seed, i, e.Kind, out, want)
				}
			}
		}
		d.checkRefcounts(t)
		out, _ := d.Arena().Outstanding()
		if want := d.reachableSlabs(); out != want {
			t.Fatalf("seed %d final: outstanding=%d reachable=%d", seed, out, want)
		}
	}
}

// TestArenaThreadReuse drives the identifier-reuse path (fork/join heavy
// trace) under the ledger, since reviving a slot mutates a possibly-shared
// clock through the copy-on-write path.
func TestArenaThreadReuse(t *testing.T) {
	d := NewWithOptions(nil, shardbase.Config{Arena: true, ArenaDebug: true}, Options{})
	for round := 0; round < 50; round++ {
		u := vclock.Thread(1)
		d.Fork(0, u)
		d.Write(u, event.Var(round%7), 1, 0)
		d.Join(0, u)
		d.ThreadExit(u)
		if round%3 == 0 {
			d.SampleBegin()
			d.Read(0, event.Var(round%5), 2, 0)
			d.SampleEnd()
		}
		if got, ok := d.ReusableThread(0); !ok || got != u {
			t.Fatalf("round %d: ReusableThread(0) = %d, %v; want %d", round, got, ok, u)
		}
	}
	d.checkRefcounts(t)
	out, _ := d.Arena().Outstanding()
	if want := d.reachableSlabs(); out != want {
		t.Fatalf("outstanding=%d reachable=%d after reuse churn", out, want)
	}
}

// TestArenaRecycleReuse checks that slab recycling actually happens under
// metadata churn (the point of the subsystem) — a wiring regression that
// silently leaked or never recycled would pass the differential but fail
// here.
func TestArenaRecycleReuse(t *testing.T) {
	d := NewWithOptions(nil, shardbase.Config{Arena: true, Shards: 4}, Options{})
	// Repeated sample/discard cycles over the same variables: records and
	// clock clones churn every period.
	for cycle := 0; cycle < 40; cycle++ {
		d.SampleBegin()
		for v := event.Var(0); v < 16; v++ {
			d.Write(1, v, 1, 0)
			d.Read(2, v, 2, 0)
		}
		d.Acquire(1, 1)
		d.Release(1, 1)
		d.SampleEnd()
		for v := event.Var(0); v < 16; v++ {
			d.Write(1, v, 3, 0) // non-sampled write discards the record
		}
		d.Acquire(2, 1)
		d.Release(2, 1)
	}
	st, ok := d.ArenaStats()
	if !ok {
		t.Fatal("ArenaStats reported no arena")
	}
	if st.Recycles == 0 {
		t.Fatalf("no slab was ever recycled under churn: %+v", st)
	}
	if st.Recycles < st.Misses {
		t.Fatalf("recycle rate too low under steady-state churn: %+v", st)
	}
}

// TestUnshareReclaimsSnapshots pins the holder-count reclamation of shared
// snapshots (vclock.Unshare): on the arena mount, a shared clock whose
// aliases have all been released is mutated in place, so a strict subset
// of the copy-on-write clones the heap mount must make (sticky shared
// mark, untracked holders) actually happen. The differential suites above
// pin that the reports stay identical; this pins that the optimization
// fires at all.
func TestUnshareReclaimsSnapshots(t *testing.T) {
	var heapClones, arenaClones uint64
	for seed := int64(1); seed <= 10; seed++ {
		tr := genTrace(seed, 4000)
		heap := NewWithOptions(nil, shardbase.Config{}, Options{})
		detector.Replay(heap, tr)
		ar := NewWithOptions(nil, shardbase.Config{Arena: true}, Options{})
		detector.Replay(ar, tr)
		hs, as := heap.Stats(), ar.Stats()
		heapClones += hs.Clones[0] + hs.Clones[1]
		arenaClones += as.Clones[0] + as.Clones[1]
	}
	if arenaClones >= heapClones {
		t.Errorf("arena clones %d >= heap clones %d — reclamation never fired", arenaClones, heapClones)
	}
	t.Logf("heap clones %d, arena clones %d", heapClones, arenaClones)
}
