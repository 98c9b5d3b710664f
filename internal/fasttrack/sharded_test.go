package fasttrack_test

import (
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

// TestFastTrackSameEpochProbe pins the detector.EpochFast contract: the
// lock-free probe answers true exactly when the access would repeat the
// variable's current epoch (a guaranteed no-op), tracks epoch advances at
// synchronization operations, and is disabled by the ablation option.
func TestFastTrackSameEpochProbe(t *testing.T) {
	d := fasttrack.New(nil)
	var _ detector.EpochFast = d
	x := event.Var(3)

	// Before EnsureThreadSlots there is no published thread epoch.
	if d.TrySameEpoch(0, x, true) {
		t.Fatal("probe true before the thread table was announced")
	}
	d.EnsureThreadSlots(4)
	if d.TrySameEpoch(0, x, true) || d.TrySameEpoch(0, x, false) {
		t.Fatal("probe true before any access installed metadata")
	}

	d.Write(0, x, 1, 0)
	if !d.TrySameEpoch(0, x, true) {
		t.Fatal("repeat write in the same epoch not dismissable")
	}
	if d.TrySameEpoch(0, x, false) {
		t.Fatal("read dismissable though the write cleared the read map")
	}
	if d.TrySameEpoch(1, x, true) {
		t.Fatal("another thread's write dismissed against thread 0's epoch")
	}

	d.Read(0, x, 2, 0)
	if !d.TrySameEpoch(0, x, false) {
		t.Fatal("repeat read in the same epoch not dismissable")
	}

	// A release advances thread 0's epoch: nothing matches anymore.
	d.Acquire(0, 9)
	d.Release(0, 9)
	if d.TrySameEpoch(0, x, true) || d.TrySameEpoch(0, x, false) {
		t.Fatal("probe still true after the epoch advanced at a release")
	}
	// The next write settles the new epoch and reopens the fast path.
	d.Write(0, x, 3, 0)
	if !d.TrySameEpoch(0, x, true) {
		t.Fatal("write in the new epoch not dismissable after settling")
	}

	// A concurrent read by another thread inflates the read map: no single
	// read epoch, so read dismissal closes for everyone.
	d.Read(0, x, 4, 0)
	d.Read(1, x, 5, 0)
	if d.TrySameEpoch(0, x, false) || d.TrySameEpoch(1, x, false) {
		t.Fatal("read dismissed against a multi-entry read map")
	}

	// The ablation switch disables the probe entirely.
	da := fasttrack.NewWithOptions(nil, shardbase.Config{}, fasttrack.Options{DisableEpochFastPath: true})
	da.EnsureThreadSlots(2)
	da.Write(0, x, 1, 0)
	if da.TrySameEpoch(0, x, true) {
		t.Fatal("probe true with DisableEpochFastPath set")
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

// TestFastTrackArenaDifferential runs the same trace through a heap-backed
// and an arena-backed detector: identical race multisets and metadata
// accounting, with the arena reporting live slabs only on the arena mount.
func TestFastTrackArenaDifferential(t *testing.T) {
	b := dtest.NewTB()
	for x := event.Var(0); x < 30; x++ {
		b.Write(0, x)
	}
	b.Acq(0, 9).Rel(0, 9).Acq(1, 9).Rel(1, 9)
	for x := event.Var(0); x < 30; x++ {
		b.Read(1, x).Write(1, x)
	}
	b.VolWrite(1, 3).VolRead(2, 3).Read(2, 5)

	heap := dtest.Run(b.Trace, func(r detector.Reporter) detector.Detector {
		return fasttrack.New(r)
	})
	arena := dtest.Run(b.Trace, func(r detector.Reporter) detector.Detector {
		return fasttrack.NewWithOptions(r, shardbase.Config{Arena: true}, fasttrack.Options{})
	})
	got, want := dtest.KeySet(arena.Dynamic), dtest.KeySet(heap.Dynamic)
	if len(got) != len(want) {
		t.Fatalf("arena found %d distinct races, heap %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("race %+v: heap reported %d, arena %d", k, n, got[k])
		}
	}

	dh := fasttrack.New(nil)
	da := fasttrack.NewWithOptions(nil, shardbase.Config{Arena: true}, fasttrack.Options{})
	detector.Replay(dh, b.Trace)
	detector.Replay(da, b.Trace)
	if dh.MetadataWords() != da.MetadataWords() {
		t.Errorf("MetadataWords differ: heap %d, arena %d", dh.MetadataWords(), da.MetadataWords())
	}
	if _, ok := dh.ArenaStats(); ok {
		t.Error("heap detector reports an arena")
	}
	st, ok := da.ArenaStats()
	if !ok {
		t.Fatal("arena detector reports no arena")
	}
	if st.SlabsLive == 0 {
		t.Error("arena detector holds no live slabs after tracking metadata")
	}
}
