package fasttrack_test

import (
	"fmt"
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
	"pacer/internal/generic"
	"pacer/internal/vclock"
)

func mk(r detector.Reporter) detector.Detector { return fasttrack.New(r) }

func TestWriteWriteRace(t *testing.T) {
	c := dtest.Run(dtest.NewTB().Write(0, 1).Write(1, 1).Trace, mk)
	if c.DynamicCount() != 1 || c.Dynamic[0].Kind != detector.WriteWrite {
		t.Fatalf("got %v", c.Dynamic)
	}
}

func TestWriteReadRace(t *testing.T) {
	c := dtest.Run(dtest.NewTB().Write(0, 1).Read(1, 1).Trace, mk)
	if c.DynamicCount() != 1 || c.Dynamic[0].Kind != detector.WriteRead {
		t.Fatalf("got %v", c.Dynamic)
	}
}

func TestReadWriteRace(t *testing.T) {
	c := dtest.Run(dtest.NewTB().Read(0, 1).Write(1, 1).Trace, mk)
	if c.DynamicCount() != 1 || c.Dynamic[0].Kind != detector.ReadWrite {
		t.Fatalf("got %v", c.Dynamic)
	}
}

func TestLockPreventsRace(t *testing.T) {
	b := dtest.NewTB().
		Acq(0, 9).Write(0, 1).Rel(0, 9).
		Acq(1, 9).Write(1, 1).Read(1, 1).Rel(1, 9)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("lock-ordered accesses raced: %v", c.Dynamic)
	}
}

func TestForkJoinOrder(t *testing.T) {
	b := dtest.NewTB().Write(0, 1).Fork(0, 1).Write(1, 1).Join(0, 1).Read(0, 1)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("fork/join-ordered accesses raced: %v", c.Dynamic)
	}
}

func TestVolatileSynchronizes(t *testing.T) {
	b := dtest.NewTB().
		Write(0, 1).VolWrite(0, 3).
		VolRead(1, 3).Write(1, 1)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("volatile-ordered accesses raced: %v", c.Dynamic)
	}
}

func TestSameEpochFastPathNoDuplicateReports(t *testing.T) {
	// Repeated reads/writes by the same thread in the same epoch take the
	// no-action fast path; only the first conflicting access reports.
	b := dtest.NewTB().Write(0, 1).Read(1, 1).Read(1, 1).Read(1, 1)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("races = %d, want 1 (same-epoch reads must not re-report)", c.DynamicCount())
	}
}

func TestConcurrentReadsInflateReadMap(t *testing.T) {
	// Three concurrent reads then a write concurrent with all: three
	// read-write races reported, one per read-map entry.
	b := dtest.NewTB().Read(0, 1).Read(1, 1).Read(2, 1).Write(3, 1)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 3 {
		t.Fatalf("races = %d, want 3", c.DynamicCount())
	}
}

func TestReadMapCollapsesToEpoch(t *testing.T) {
	// Reads ordered by happens-before collapse the read map back to an
	// epoch: after t1's ordered read, t0's earlier read is forgotten, so a
	// write concurrent with t0 but ordered after t1 reports no race.
	b := dtest.NewTB().
		Read(0, 1).Rel(0, 5).
		Acq(1, 5).Read(1, 1).Rel(1, 6).
		Acq(2, 6).Write(2, 1)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 0 {
		t.Fatalf("got %v, want no race (epoch collapse)", c.Dynamic)
	}
}

func TestLastWriteWinsSemantics(t *testing.T) {
	// FASTTRACK tracks only the last write: C ordered after B does not race
	// even though A and C are concurrent — (A, C) is not a shortest race
	// because B intervenes. (Contrast with GENERIC, which reports it.)
	b := dtest.NewTB().
		Write(0, 1).
		Write(1, 1).Rel(1, 5).
		Acq(2, 5).Write(2, 1)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("races = %d, want 1 (only A vs B)", c.DynamicCount())
	}
	if r := c.Dynamic[0]; r.FirstThread != 0 || r.SecondThread != 1 {
		t.Errorf("unexpected race %v", r)
	}
}

func TestWriteClearsReadMap(t *testing.T) {
	// The paper's modified Algorithm 8 clears the read map at a write: a
	// later write ordered after the first write does not re-report the
	// discarded read.
	b := dtest.NewTB().
		Read(0, 1).
		Write(1, 1). // read-write race with t0; read map cleared
		Rel(1, 5).
		Acq(2, 5).Write(2, 1) // ordered after t1's write: no report
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("races = %d, want 1", c.DynamicCount())
	}
}

// The original FastTrack keeps a single-entry read map at a write; the
// paper's modified algorithm, the only one implemented, does not keep the
// read epoch.
func TestKeepReadEpochOnWriteOption(t *testing.T) {
	// t0 reads; t1 writes after t0; t2 writes concurrently with everything.
	// The write clears t0's read epoch, so only the write-write race is
	// reported, the shortest of the two true races on x1 (the original
	// FastTrack re-reports the surviving read against t2's write).
	b := dtest.NewTB().Read(0, 1).Rel(0, 5).Acq(1, 5).Write(1, 1).Write(2, 1)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 || c.Dynamic[0].Kind != detector.WriteWrite {
		t.Fatalf("races = %v, want the write-write race only", c.Dynamic)
	}
}

// The same-epoch fast path is a pure optimization up to each variable's
// first race: disabling it must not change which variables race or when
// their first race is detected. (After a variable's first race the two
// configurations may legitimately differ in which true races they
// re-report, so report multisets are not compared.)
func TestDisableEpochFastPathSameFirstRaces(t *testing.T) {
	mkSlow := func(r detector.Reporter) detector.Detector {
		return fasttrack.NewWithOptions(r, shardbase.Config{}, fasttrack.Options{DisableEpochFastPath: true})
	}
	for seed := int64(0); seed < 10; seed++ {
		tr := event.Generate(event.Racy(6, 3000, seed))
		fast := dtest.FirstRacePerVar(tr, mk)
		slow := dtest.FirstRacePerVar(tr, mkSlow)
		if len(fast) != len(slow) {
			t.Fatalf("seed %d: racy variable sets differ: %d vs %d", seed, len(fast), len(slow))
		}
		for v, i := range fast {
			if slow[v] != i {
				t.Fatalf("seed %d: first race on x%d at event %d (fast path) vs %d (no fast path)", seed, v, i, slow[v])
			}
		}
	}
}

func TestSynchronizedTracesAreRaceFree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := event.Generate(event.Synchronized(6, 4000, seed))
		if c := dtest.Run(tr, mk); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: false positive %v", seed, c.Dynamic[0])
		}
	}
}

// FASTTRACK and GENERIC agree on each variable's first race: same event
// index, same variable set (the precision equivalence FastTrack proves).
func TestFirstRaceAgreesWithGeneric(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := event.Generate(event.GenConfig{
			Threads: 6, Vars: 10, Locks: 3, Volatiles: 2,
			Steps: 2500, PGuarded: 0.55, PWrite: 0.4, Seed: seed,
		})
		ft := dtest.FirstRacePerVar(tr, mk)
		gen := dtest.FirstRacePerVar(tr, func(r detector.Reporter) detector.Detector { return generic.New(r) })
		if len(ft) != len(gen) {
			t.Fatalf("seed %d: fasttrack found races on %d vars, generic on %d", seed, len(ft), len(gen))
		}
		for v, i := range ft {
			if gen[v] != i {
				t.Fatalf("seed %d: first race on x%d at event %d (fasttrack) vs %d (generic)", seed, v, i, gen[v])
			}
		}
	}
}

// Every FASTTRACK report is a true race: on traces where unsynchronized
// variables are disjoint from synchronized ones, reports must only name
// unsynchronized variables.
func TestPrecisionOnMixedTraces(t *testing.T) {
	// Build a trace interleaving a properly locked variable and a free one.
	b := dtest.NewTB()
	for i := 0; i < 50; i++ {
		th := vclock.Thread(i % 3)
		b.Acq(th, 1).Write(th, 100).Rel(th, 1)
		b.Write(th, 200) // unguarded
	}
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() == 0 {
		t.Fatal("expected races on the unguarded variable")
	}
	for _, r := range c.Dynamic {
		if r.Var != 200 {
			t.Fatalf("false positive on guarded variable: %v", r)
		}
	}
}

func TestStatsAndMetadata(t *testing.T) {
	d := fasttrack.New(nil)
	b := dtest.NewTB()
	for x := event.Var(0); x < 20; x++ {
		b.Write(0, x).Read(1, x)
	}
	detector.Replay(d, b.Trace)
	if d.Stats().TotalReads() != 20 || d.Stats().TotalWrites() != 20 {
		t.Error("access counters wrong")
	}
	if d.MetadataWords() == 0 {
		t.Error("metadata words is zero after tracking 20 vars")
	}
	if d.Name() != "fasttrack" {
		t.Error("wrong name")
	}
}

func ExampleDetector() {
	d := fasttrack.New(func(r detector.Race) { fmt.Println(r) })
	d.Write(0, 7, 11, 0)
	d.Write(1, 7, 22, 0)
	// Output: write-write race on x7: t0@s11 vs t1@s22
}
