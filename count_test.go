package pacer_test

import (
	"math/bits"
	"testing"

	"pacer"
)

type countingFrontDoor struct{}

func (countingFrontDoor) FrontDoorStats() pacer.FrontDoorStats { return pacer.FrontDoorStats{} }

// TestCountPublishesTally: a tally published with Count lands in Stats
// exactly where the same operations counted one at a time would.
func TestCountPublishesTally(t *testing.T) {
	d := pacer.New(pacer.Options{SamplingRate: 0})
	d.MountFrontDoor(countingFrontDoor{})
	th := d.NewThread()
	st0 := d.Stats()
	d.Count(th, pacer.Tally{UnclaimedReads: 3, UnclaimedWrites: 2, Joins: 4, Copies: 1, VolCopies: 2, ShadowHits: 5})
	d.Count(th+100, pacer.Tally{UnclaimedReads: 1}) // no cell yet: the spill cell
	st := d.Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Reads", st.Reads - st0.Reads, 4},
		{"Writes", st.Writes - st0.Writes, 2},
		{"FastPathReads", st.FastPathReads - st0.FastPathReads, 4},
		{"FastPathWrites", st.FastPathWrites - st0.FastPathWrites, 2},
		{"ShadowUnclaimed", st.ShadowUnclaimed - st0.ShadowUnclaimed, 6},
		{"ShadowHits", st.ShadowHits - st0.ShadowHits, 11},
		{"SyncOps", st.SyncOps - st0.SyncOps, 7},
		// A volatile write is a fast join plus a shallow copy.
		{"FastJoins", st.FastJoins - st0.FastJoins, 6},
		{"ShallowCopies", st.ShallowCopies - st0.ShallowCopies, 3},
	} {
		if c.got != c.want {
			t.Errorf("%s advanced by %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestCellTableGrowsGeometrically: forking 4096 threads allocates
// O(log n) counter-cell tables, not one per thread, and every thread
// still counts on a cell of its own.
func TestCellTableGrowsGeometrically(t *testing.T) {
	const n = 4096
	d := pacer.New(pacer.Options{SamplingRate: 0})
	root := d.NewThread()
	tables, last := 0, d.CellTableCap()
	threads := []pacer.ThreadID{root}
	for i := 0; i < n; i++ {
		threads = append(threads, d.Fork(root))
		if c := d.CellTableCap(); c != last {
			tables, last = tables+1, c
		}
	}
	if limit := bits.Len(n) + 1; tables > limit {
		t.Fatalf("%d forks allocated %d cell tables, want at most %d", n, tables, limit)
	}
	st0 := d.Stats()
	for _, th := range threads {
		d.Count(th, pacer.Tally{UnclaimedReads: 1})
	}
	if got := d.Stats().Reads - st0.Reads; got != uint64(len(threads)) {
		t.Fatalf("one count per thread advanced Reads by %d, want %d", got, len(threads))
	}
}
