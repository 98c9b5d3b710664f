package goldilocks_test

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
	"pacer/internal/goldilocks"
)

func mk(r detector.Reporter) detector.Detector { return goldilocks.New(r) }

func TestBasicRaces(t *testing.T) {
	cases := []struct {
		name  string
		trace event.Trace
		kind  detector.RaceKind
	}{
		{"ww", dtest.NewTB().Write(0, 1).Write(1, 1).Trace, detector.WriteWrite},
		{"wr", dtest.NewTB().Write(0, 1).Read(1, 1).Trace, detector.WriteRead},
		{"rw", dtest.NewTB().Read(0, 1).Write(1, 1).Trace, detector.ReadWrite},
	}
	for _, tc := range cases {
		c := dtest.Run(tc.trace, mk)
		if c.DynamicCount() != 1 || c.Dynamic[0].Kind != tc.kind {
			t.Errorf("%s: got %v", tc.name, c.Dynamic)
		}
	}
}

func TestLockTransferEntitles(t *testing.T) {
	b := dtest.NewTB().
		Acq(0, 1).Write(0, 7).Rel(0, 1).
		Acq(1, 1).Write(1, 7).Rel(1, 1)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("lock-ordered writes raced: %v", c.Dynamic)
	}
}

func TestTransitiveTransfer(t *testing.T) {
	// Entitlement flows t0 → (lock 1) → t1 → (lock 2) → t2.
	b := dtest.NewTB().
		Write(0, 7).Acq(0, 1).Rel(0, 1).
		Acq(1, 1).Rel(1, 1).Acq(1, 2).Rel(1, 2).
		Acq(2, 2).Rel(2, 2).Write(2, 7)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("transitively ordered writes raced: %v", c.Dynamic)
	}
}

func TestForkJoinAndVolatileEdges(t *testing.T) {
	b := dtest.NewTB().
		Write(0, 1).Fork(0, 1).Read(1, 1). // fork edge
		Write(1, 2).Join(0, 1).Read(0, 2). // join edge
		Write(0, 3).VolWrite(0, 5).
		VolRead(2, 5).Read(2, 3) // volatile edge
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("synchronized accesses raced: %v", c.Dynamic)
	}
}

func TestConcurrentReadersAllCheckedAtWrite(t *testing.T) {
	// Three concurrent readers, then a write concurrent with all: three
	// read-write races — the multi-reader case a single last-access
	// tracker would miss.
	b := dtest.NewTB().Read(0, 1).Read(1, 1).Read(2, 1).Write(3, 1)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 3 {
		t.Fatalf("races = %d, want 3", c.DynamicCount())
	}
}

func TestOrderedReaderNotReported(t *testing.T) {
	// Reader 0 is ordered before the write via a lock; reader 1 is not.
	b := dtest.NewTB().
		Read(0, 1).Acq(0, 5).Rel(0, 5).
		Read(1, 1).
		Acq(2, 5).Write(2, 1)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("races = %d, want 1 (only the unordered reader)", c.DynamicCount())
	}
	if c.Dynamic[0].FirstThread != 1 {
		t.Errorf("wrong reader reported: %v", c.Dynamic[0])
	}
}

func TestVolatileWriteIsReleaseOnly(t *testing.T) {
	// A volatile write publishes but does not acquire: t2's plain write
	// still races with t0's.
	b := dtest.NewTB().
		Write(0, 7).VolWrite(0, 3).
		VolWrite(2, 3).Write(2, 7)
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("races = %d, want 1", c.DynamicCount())
	}
}

func TestNoFalsePositivesOnSynchronizedTraces(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := event.Generate(event.Synchronized(6, 3000, seed))
		if c := dtest.Run(tr, mk); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: false positive %v", seed, c.Dynamic[0])
		}
	}
}

// Goldilocks is precise: it agrees with FASTTRACK on each variable's first
// race, on arbitrary traces.
func TestFirstRaceAgreesWithFastTrack(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := event.Generate(event.GenConfig{
			Threads: 6, Vars: 10, Locks: 3, Volatiles: 2,
			Steps: 2000, PGuarded: 0.55, PWrite: 0.4, Seed: seed,
		})
		gl := dtest.FirstRacePerVar(tr, mk)
		ft := dtest.FirstRacePerVar(tr, func(r detector.Reporter) detector.Detector { return fasttrack.New(r) })
		if len(gl) != len(ft) {
			t.Fatalf("seed %d: goldilocks raced %d vars, fasttrack %d", seed, len(gl), len(ft))
		}
		for v, i := range gl {
			if ft[v] != i {
				t.Fatalf("seed %d: first race on x%d at event %d (goldilocks) vs %d (fasttrack)", seed, v, i, ft[v])
			}
		}
	}
}

func TestLocksetGrowth(t *testing.T) {
	d := goldilocks.New(nil)
	d.Write(0, 7, 1, 0)
	if d.LocksetSize(7) != 1 {
		t.Fatalf("initial closure size = %d, want 1", d.LocksetSize(7))
	}
	d.Release(0, 3) // closure gains lock 3
	d.Acquire(1, 3) // closure gains thread 1
	if d.LocksetSize(7) != 3 {
		t.Fatalf("closure size = %d, want 3", d.LocksetSize(7))
	}
}

func TestStatsAndName(t *testing.T) {
	d := goldilocks.New(nil)
	d.Write(0, 1, 1, 0)
	d.Read(1, 1, 2, 0)
	d.Acquire(0, 1)
	d.Release(0, 1)
	d.Fork(0, 1)
	d.Join(0, 1)
	if d.Name() != "goldilocks" {
		t.Error("wrong name")
	}
	if d.Stats().TotalSyncOps() != 4 {
		t.Errorf("sync ops = %d", d.Stats().TotalSyncOps())
	}
	if d.Stats().Races == 0 {
		t.Error("race counter not incremented")
	}
}

func TestMetadataWordsCountsClosures(t *testing.T) {
	// Variable 1: a write whose closure grows from {0} to {0, lock 5}.
	// Variable 2: two concurrent readers, closures {1} and {2}.
	b := dtest.NewTB().Write(0, 1).Rel(0, 5).Read(1, 2).Read(2, 2)
	d := goldilocks.New(nil)
	detector.Replay(d, b.Trace)
	if got, want := d.MetadataWords(), (2+3+2)+(2+(3+1)+(3+1)); got != want {
		t.Fatalf("MetadataWords = %d, want %d", got, want)
	}
}
