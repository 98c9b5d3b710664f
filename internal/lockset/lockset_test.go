package lockset_test

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
	"pacer/internal/lockset"
	"pacer/internal/vclock"
)

func mk(r detector.Reporter) detector.Detector { return lockset.New(r) }

func TestConsistentLockingIsSilent(t *testing.T) {
	b := dtest.NewTB()
	for i := 0; i < 21; i++ {
		th := vclock.Thread(i % 3)
		b.Acq(th, 1).Read(th, 7).Write(th, 7).Rel(th, 1)
	}
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("consistent locking reported: %v", c.Dynamic)
	}
}

func TestDisciplineViolationReported(t *testing.T) {
	b := dtest.NewTB().
		Acq(0, 1).Write(0, 7).Rel(0, 1).
		Write(1, 7) // second thread, no lock → empty lockset, shared-modified
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("reports = %d, want 1", c.DynamicCount())
	}
}

func TestReportedAtMostOncePerVariable(t *testing.T) {
	b := dtest.NewTB().Write(0, 7).Write(1, 7).Write(0, 7).Write(1, 7).Write(2, 7)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("reports = %d, want 1 (Eraser reports once per variable)", c.DynamicCount())
	}
}

func TestInitializationPatternNotReported(t *testing.T) {
	// Eraser's state machine: single-thread initialization without locks is
	// fine; only after a second thread arrives does refinement start.
	b := dtest.NewTB().
		Write(0, 7).Write(0, 7).Read(0, 7). // unlocked init by owner
		Acq(0, 1).Rel(0, 1).
		Acq(1, 1).Read(1, 7).Rel(1, 1). // handoff under lock
		Acq(1, 1).Write(1, 7).Rel(1, 1)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("init pattern reported: %v", c.Dynamic)
	}
}

func TestReadSharedWithoutWritesNotReported(t *testing.T) {
	// Multiple readers with no locks and no writes after sharing: the
	// shared state never reaches shared-modified.
	b := dtest.NewTB().Write(0, 7).Read(1, 7).Read(2, 7).Read(0, 7)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("read-shared reported: %v", c.Dynamic)
	}
}

func TestLocksetRefinement(t *testing.T) {
	d := lockset.New(nil)
	// Thread 0 accesses x holding {1,2}; thread 1 holding {2,3}.
	d.Acquire(0, 1)
	d.Acquire(0, 2)
	d.Write(0, 7, 10, 0)
	d.Release(0, 2)
	d.Release(0, 1)
	d.Acquire(1, 2)
	d.Acquire(1, 3)
	d.Write(1, 7, 11, 0)
	if got := d.Locks(7); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("candidate set after first refinement = %v, want [2 3]", got)
	}
	d.Release(1, 3)
	d.Write(1, 7, 12, 0) // still holds {2}
	if got := d.Locks(7); len(got) != 1 || got[0] != 2 {
		t.Fatalf("candidate set = %v, want [2]", got)
	}
}

// The paper's precision argument, demonstrated: fork/join and volatile
// synchronization produce NO happens-before races (FASTTRACK is silent)
// but violate the locking discipline (lockset reports) — false positives.
func TestFalsePositiveOnForkJoin(t *testing.T) {
	b := dtest.NewTB().
		Fork(0, 1).Write(1, 7).Join(0, 1).Write(0, 7)
	ft := dtest.Run(b.Trace, func(r detector.Reporter) detector.Detector { return fasttrack.New(r) })
	if ft.DynamicCount() != 0 {
		t.Fatalf("fasttrack reported on a race-free fork/join program: %v", ft.Dynamic)
	}
	ls := dtest.Run(b.Trace, mk)
	if ls.DynamicCount() == 0 {
		t.Fatal("expected a lockset false positive on fork/join handoff")
	}
}

func TestFalsePositiveOnVolatileHandoff(t *testing.T) {
	b := dtest.NewTB().
		Write(0, 7).VolWrite(0, 3).
		VolRead(1, 3).Write(1, 7)
	ft := dtest.Run(b.Trace, func(r detector.Reporter) detector.Detector { return fasttrack.New(r) })
	if ft.DynamicCount() != 0 {
		t.Fatalf("fasttrack reported on volatile-ordered accesses: %v", ft.Dynamic)
	}
	ls := dtest.Run(b.Trace, mk)
	if ls.DynamicCount() == 0 {
		t.Fatal("expected a lockset false positive on volatile handoff")
	}
}

// On completely lock-free traces, every variable FASTTRACK finds in a
// write-write or read-write race (i.e. where a *write* arrives after the
// variable is shared) is also flagged by lockset: the candidate set is
// empty at the first shared-modified access. (Write-then-read-shared races
// are a known Eraser blind spot — its state machine never leaves the
// read-shared state — so they are excluded.)
func TestFlagsHappensBeforeRacesOnLockFreeTraces(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		tr := event.Generate(event.GenConfig{
			Threads: 5, Vars: 8, Locks: 1, Volatiles: 1,
			Steps: 1200, PGuarded: 0, PWrite: 0.4, Seed: seed,
		})
		// Keep only data accesses: no locks, no fork/join, no volatiles.
		var filtered event.Trace
		for _, e := range tr {
			if e.Kind.IsAccess() {
				filtered = append(filtered, e)
			}
		}
		ftVars := map[event.Var]bool{}
		ft := dtest.Run(filtered, func(r detector.Reporter) detector.Detector { return fasttrack.New(r) })
		for _, r := range ft.Dynamic {
			if r.Kind == detector.WriteWrite || r.Kind == detector.ReadWrite {
				ftVars[r.Var] = true
			}
		}
		lsVars := map[event.Var]bool{}
		for _, r := range dtest.Run(filtered, mk).Dynamic {
			lsVars[r.Var] = true
		}
		for v := range ftVars {
			if !lsVars[v] {
				t.Fatalf("seed %d: happens-before write race on x%d missed by lockset", seed, v)
			}
		}
	}
}

func TestStatsAndName(t *testing.T) {
	d := lockset.New(nil)
	d.Write(0, 1, 1, 0)
	d.Read(0, 1, 2, 0)
	d.Acquire(0, 1)
	d.Release(0, 1)
	if d.Name() != "lockset" {
		t.Error("wrong name")
	}
	s := d.Stats()
	if s.TotalReads() != 1 || s.TotalWrites() != 1 || s.TotalSyncOps() != 2 {
		t.Error("counters wrong")
	}
}

func TestMetadataWordsCountsCandidateLocks(t *testing.T) {
	// Variable 7 is shared under lock 1, so its candidate set is {1};
	// variable 8 stays exclusive, with no candidate set.
	b := dtest.NewTB().
		Acq(0, 1).Write(0, 7).Rel(0, 1).
		Acq(1, 1).Write(1, 7).Rel(1, 1).
		Write(0, 8)
	d := lockset.New(nil)
	detector.Replay(d, b.Trace)
	if got := d.VarsTracked(); got != 2 {
		t.Fatalf("VarsTracked = %d, want 2", got)
	}
	if got, want := d.MetadataWords(), (4+1)+4; got != want {
		t.Fatalf("MetadataWords = %d, want %d", got, want)
	}
}
