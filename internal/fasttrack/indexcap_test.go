package fasttrack

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
)

// TestFastTrackIndexCapSmall pins shardbase.TableBound: variables below
// the bound keep their records in the record table and their same-epoch
// repeats dismiss lock-free, variables at or above it keep theirs in the
// shard maps (TrySameEpoch must refuse them) yet still detect races
// through the locked path.
func TestFastTrackIndexCapSmall(t *testing.T) {
	c := detector.NewCollector()
	d := NewWithOptions(c.Report, shardbase.Config{}, Options{})
	d.EnsureThreadSlots(2)
	d.Fork(0, 1)

	low, high := event.Var(shardbase.TableBound-1), event.Var(shardbase.TableBound)
	d.Write(0, low, 1, 0)
	d.Write(0, high, 2, 0)

	if !d.TrySameEpoch(0, low, 0, 0, true) {
		t.Error("below-bound variable not dismissible lock-free after its write")
	}
	if d.TrySameEpoch(0, high, 0, 0, true) {
		t.Error("variable at the bound is in the record table")
	}

	// Both sides of the bound must detect the concurrent second write.
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

// TestFastTrackIndexCapDefault pins that sequentially allocated
// identifiers live in the record table.
func TestFastTrackIndexCapDefault(t *testing.T) {
	d := NewWithOptions(func(detector.Race) {}, shardbase.Config{}, Options{})
	d.EnsureThreadSlots(1)
	d.Write(0, 7, 1, 0)
	if !d.TrySameEpoch(0, 7, 0, 0, true) {
		t.Error("the record table does not hold a small identifier")
	}
}
