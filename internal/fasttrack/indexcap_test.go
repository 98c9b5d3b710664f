package fasttrack

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
)

// TestFastTrackIndexCapSmall pins shardbase.Config.IndexCap: variables
// below the cap keep their records in the record table and their
// same-epoch repeats dismiss lock-free, variables at or above the cap
// keep theirs in the shard maps (TrySameEpoch must refuse them) yet still
// detect races through the locked path.
func TestFastTrackIndexCapSmall(t *testing.T) {
	c := detector.NewCollector()
	d := NewWithOptions(c.Report, shardbase.Config{IndexCap: 4}, Options{})
	d.EnsureThreadSlots(2)
	d.Fork(0, 1)

	low, high := event.Var(1), event.Var(1000)
	d.Write(0, low, 1, 0)
	d.Write(0, high, 2, 0)

	if !d.TrySameEpoch(0, low, 0, 0, true) {
		t.Error("below-cap variable not dismissible lock-free after its write")
	}
	if d.TrySameEpoch(0, high, 0, 0, true) {
		t.Error("above-cap variable is in the record table despite IndexCap")
	}

	// Both sides of the cap must detect the concurrent second write.
	d.Write(1, low, 3, 0)
	d.Write(1, high, 4, 0)
	seen := map[event.Var]bool{}
	for _, r := range c.Dynamic {
		seen[r.Var] = true
	}
	if !seen[low] || !seen[high] {
		t.Fatalf("races reported on %v, want both x%d and x%d", seen, low, high)
	}
}

// TestFastTrackIndexCapDisabled pins the negative-cap escape hatch: no
// record is ever in the table, every same-epoch probe refuses, and
// detection is unchanged.
func TestFastTrackIndexCapDisabled(t *testing.T) {
	c := detector.NewCollector()
	d := NewWithOptions(c.Report, shardbase.Config{IndexCap: -1}, Options{})
	d.EnsureThreadSlots(2)
	d.Fork(0, 1)
	d.Write(0, 1, 1, 0)
	if d.TrySameEpoch(0, 1, 0, 0, true) {
		t.Error("negative IndexCap must disable the record table")
	}
	d.Write(1, 1, 2, 0)
	if len(c.Dynamic) != 1 {
		t.Fatalf("got %d races, want 1", len(c.Dynamic))
	}
}

// TestFastTrackIndexCapDefault pins that the zero value keeps the
// original behavior: sequentially allocated identifiers live in the
// record table.
func TestFastTrackIndexCapDefault(t *testing.T) {
	d := NewWithOptions(func(detector.Race) {}, shardbase.Config{}, Options{})
	if d.Bound() != shardbase.DefaultIndexCap {
		t.Fatalf("zero Config.IndexCap resolved to %d, want the %d default",
			d.Bound(), shardbase.DefaultIndexCap)
	}
	d.EnsureThreadSlots(1)
	d.Write(0, 7, 1, 0)
	if !d.TrySameEpoch(0, 7, 0, 0, true) {
		t.Error("default cap kept a small identifier out of the record table")
	}
}
