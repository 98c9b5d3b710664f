package core

import (
	"testing"

	"pacer/internal/detector"
)

// A Rule 6 join into a thread whose clock is shared clones that clock once,
// at the width of the wider source, instead of cloning it at its own width
// and growing the clone in the join: one clock allocated, its header and
// its storage.
func TestRule6JoinAllocatesOnce(t *testing.T) {
	const runs = 50
	ds := make([]*Detector, runs+1)
	for i := range ds {
		d := New(nil)
		d.SampleBegin()
		d.Release(1, 2)
		d.Acquire(0, 2) // thread 0's version vector covers thread 1
		d.Release(9, 3)
		d.Acquire(1, 3) // thread 1's clock is ten threads wide
		d.Release(1, 1)
		d.SampleEnd()
		d.Release(0, 4) // a shallow copy: thread 0's clock is shared
		if !d.threads[0].clock.Shared() || d.threads[0].clock.Len() >= d.locks[1].clock.Len() {
			t.Fatal("set-up did not leave thread 0 a shared clock narrower than lock 1's")
		}
		ds[i] = d
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		d := ds[next]
		next++
		d.Acquire(0, 1)
	})
	for _, d := range ds {
		if d.SyncStats.SlowJoins[detector.NonSampling] != 1 || d.SyncStats.Clones[detector.NonSampling] != 1 {
			t.Fatalf("acquire was not a Rule 6 join on a shared clock: %+v", d.SyncStats)
		}
	}
	if allocs > 2 {
		t.Errorf("Rule 6 join: %v allocations, want 2 (one clock)", allocs)
	}
}
