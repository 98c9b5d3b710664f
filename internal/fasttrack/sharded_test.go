package fasttrack_test

import (
	"strings"
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
)

// TestFastTrackShardedContract pins the detector.Sharded surface: the
// shard count rounds to a power of two, ShardOf stays in range, the state
// word is the constant "always sampling" value, and the presence filter
// answers false exactly until a variable's first access installs metadata.
func TestFastTrackShardedContract(t *testing.T) {
	d := fasttrack.NewWithOptions(nil, shardbase.Config{Shards: 6}, fasttrack.Options{})
	var _ detector.Sharded = d

	if got := d.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 6 rounded up to 8", got)
	}
	for x := event.Var(0); x < 4096; x++ {
		if s := d.ShardOf(x); s < 0 || s >= d.Shards() {
			t.Fatalf("ShardOf(%d) = %d, outside [0, %d)", x, s, d.Shards())
		}
	}
	if w := d.State().Word(); w != 1 {
		t.Fatalf("State().Word() = %d, want the constant 1 (flag set, zero transitions)", w)
	}

	x := event.Var(42)
	if d.MetaPossible(x) {
		t.Fatal("MetaPossible true before any access")
	}
	d.Read(0, x, 1, 0)
	if !d.MetaPossible(x) {
		t.Fatal("MetaPossible false after a read installed a read-map entry")
	}
	if d.State().Word() != 1 {
		t.Fatal("State word changed: FASTTRACK never transitions")
	}

	// EnsureThreadSlots pre-grows the thread table; later first accesses by
	// those identifiers must work (and still start at the initial clock).
	d.EnsureThreadSlots(16)
	y := event.Var(7)
	d.Write(15, y, 2, 0)
	if !d.MetaPossible(y) {
		t.Fatal("MetaPossible false after a write installed a write epoch")
	}
}

// TestFastTrackSameEpochProbe pins the same-epoch stage's contract: the
// lock-free probe answers true exactly when the access would repeat the
// variable's current epoch (a guaranteed no-op), tracks epoch advances at
// synchronization operations, and the ablation options leave it, and the
// owned-access stage that extends it, out of the dismissal chain.
func TestFastTrackSameEpochProbe(t *testing.T) {
	d := fasttrack.New(nil)
	x := event.Var(3)

	// Before EnsureThreadSlots there is no published thread epoch.
	if d.TrySameEpoch(0, x, 0, 0, true) {
		t.Fatal("probe true before the thread table was announced")
	}
	d.EnsureThreadSlots(4)
	if d.TrySameEpoch(0, x, 0, 0, true) || d.TrySameEpoch(0, x, 0, 0, false) {
		t.Fatal("probe true before any access installed metadata")
	}

	d.Write(0, x, 1, 0)
	if !d.TrySameEpoch(0, x, 0, 0, true) {
		t.Fatal("repeat write in the same epoch not dismissable")
	}
	if d.TrySameEpoch(0, x, 0, 0, false) {
		t.Fatal("read dismissable though the write cleared the read map")
	}
	if d.TrySameEpoch(1, x, 0, 0, true) {
		t.Fatal("another thread's write dismissed against thread 0's epoch")
	}

	d.Read(0, x, 2, 0)
	if !d.TrySameEpoch(0, x, 0, 0, false) {
		t.Fatal("repeat read in the same epoch not dismissable")
	}

	// A release advances thread 0's epoch: nothing matches anymore.
	d.Acquire(0, 9)
	d.Release(0, 9)
	if d.TrySameEpoch(0, x, 0, 0, true) || d.TrySameEpoch(0, x, 0, 0, false) {
		t.Fatal("probe still true after the epoch advanced at a release")
	}
	// The next write settles the new epoch and reopens the fast path.
	d.Write(0, x, 3, 0)
	if !d.TrySameEpoch(0, x, 0, 0, true) {
		t.Fatal("write in the new epoch not dismissable after settling")
	}

	// A concurrent read by another thread inflates the read map: no single
	// read epoch, so read dismissal closes for everyone.
	d.Read(0, x, 4, 0)
	d.Read(1, x, 5, 0)
	if d.TrySameEpoch(0, x, 0, 0, false) || d.TrySameEpoch(1, x, 0, 0, false) {
		t.Fatal("read dismissed against a multi-entry read map")
	}

	// The chain lists both stages, and the ablation drops both.
	for _, tc := range []struct {
		opts fasttrack.Options
		want string
	}{
		{fasttrack.Options{}, "same-epoch owned-access"},
		{fasttrack.Options{DisableEpochFastPath: true}, ""},
	} {
		var names []string
		for _, st := range fasttrack.NewWithOptions(nil, shardbase.Config{}, tc.opts).Stages() {
			names = append(names, st.Name)
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%+v: chain %q, want %q", tc.opts, got, tc.want)
		}
	}
}

// TestFastTrackDefaultShards pins the default shard count shared with the
// PACER core, so the front-end's striped locks line up.
func TestFastTrackDefaultShards(t *testing.T) {
	if got := fasttrack.New(nil).Shards(); got != 64 {
		t.Fatalf("default Shards() = %d, want 64", got)
	}
}

// TestFastTrackShardedStatsAggregation checks that per-shard access
// counters and race counts roll up through the Stats snapshot exactly.
func TestFastTrackShardedStatsAggregation(t *testing.T) {
	var races int
	d := fasttrack.NewWithOptions(func(detector.Race) { races++ }, shardbase.Config{Shards: 4}, fasttrack.Options{})
	b := dtest.NewTB()
	for x := event.Var(0); x < 40; x++ {
		b.Write(0, x).Read(1, x) // 40 write-read races across the shards
	}
	detector.Replay(d, b.Trace)
	s := d.Stats()
	if s.TotalReads() != 40 || s.TotalWrites() != 40 {
		t.Errorf("aggregated counters: reads %d writes %d, want 40/40", s.TotalReads(), s.TotalWrites())
	}
	if s.Races != uint64(races) || races != 40 {
		t.Errorf("aggregated Races = %d, reporter saw %d, want 40", s.Races, races)
	}
	if d.VarsTracked() != 40 {
		t.Errorf("VarsTracked = %d, want 40", d.VarsTracked())
	}
	if d.MetadataWords() == 0 {
		t.Error("MetadataWords zero after tracking 40 vars")
	}
}
