package shardbase_test

import (
	"testing"

	"pacer/internal/backends"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

func TestShardbaseGeometryRounding(t *testing.T) {
	for _, c := range []struct{ requested, want int }{
		{0, shardbase.DefaultShards}, {-5, shardbase.DefaultShards},
		{1, 1}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := shardbase.NewGeometry(c.requested).Shards(); got != c.want {
			t.Errorf("NewGeometry(%d).Shards() = %d, want %d", c.requested, got, c.want)
		}
	}
	if shardbase.DefaultShards != 64 {
		t.Errorf("DefaultShards = %d, want 64", shardbase.DefaultShards)
	}
	g := shardbase.NewGeometry(8)
	for x := 0; x < 1000; x++ {
		if s := g.ShardOf(event.Var(x)); s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d) = %d, outside [0, 8)", x, s)
		}
	}
}

func TestShardbaseStateWord(t *testing.T) {
	var on shardbase.State
	on.SetAlwaysOn()
	if w := on.Word(); w != 1 {
		t.Errorf("SetAlwaysOn word = %d, want 1", w)
	}

	var s shardbase.State
	if w := s.Word(); w != 0 {
		t.Fatalf("zero word = %d, want 0", w)
	}
	want := []uint64{1<<1 | 1, 2 << 1, 3<<1 | 1}
	for i, sampling := range []bool{true, false, true} {
		s.Publish(sampling)
		w := s.Word()
		if w != want[i] {
			t.Errorf("publish %d (sampling=%v): word = %#x, want %#x", i+1, sampling, w, want[i])
		}
		if flag := w&1 == 1; flag != sampling {
			t.Errorf("publish %d: flag = %v, want %v", i+1, flag, sampling)
		}
	}
	// Publishing the same flag still bumps the transition count, so two
	// loads bracketing a probe see different words.
	before := s.Word()
	s.Publish(true)
	if s.Word() == before {
		t.Error("Publish left the transition count unchanged")
	}
}

func TestShardbasePresence(t *testing.T) {
	p := shardbase.NewPresence()
	const x = event.Var(42)
	if p.Possible(x) {
		t.Fatal("empty filter reports x possible")
	}
	p.Add(x)
	p.Add(x)
	if !p.Possible(x) {
		t.Fatal("x not possible after Add")
	}
	p.Remove(x)
	if !p.Possible(x) {
		t.Fatal("x not possible with one Add outstanding")
	}
	p.Remove(x)
	if p.Possible(x) {
		t.Fatal("x still possible after every Add was removed")
	}
}

func TestShardbaseIndexCaps(t *testing.T) {
	if got := shardbase.NewIndex[int](0).Cap(); got != 1<<22 {
		t.Errorf("cap 0 resolves to %d, want %d", got, 1<<22)
	}
	if shardbase.DefaultIndexCap != 1<<22 {
		t.Errorf("DefaultIndexCap = %d, want %d", shardbase.DefaultIndexCap, 1<<22)
	}

	off := shardbase.NewIndex[int](-1)
	if off.Cap() != 0 {
		t.Errorf("negative cap resolves to %d, want 0 (disabled)", off.Cap())
	}
	v := 7
	off.Publish(0, &v)
	if off.Lookup(0) != nil {
		t.Error("disabled index returned a record")
	}

	ix := shardbase.NewIndex[int](2000)
	ix.Publish(1999, &v)
	if ix.Lookup(1999) != &v {
		t.Error("id below the cap was not indexed")
	}
	for _, x := range []event.Var{2000, 2001, 1 << 20} {
		ix.Publish(x, &v)
		if ix.Lookup(x) != nil {
			t.Errorf("id %d at or above the cap 2000 was indexed", x)
		}
	}
}

// shardedBackends is every registry entry that mounts the shardbase store.
var shardedBackends = []string{"pacer", "fasttrack", "o1samples", "djit", "djit+", "literace"}

// TestShardbaseConfigReachesEveryBackend pins that every sharded backend
// honors the one store configuration: the shard count, the arena, and the
// clock representation (an unknown one panics rather than silently
// mounting flat clocks).
func TestShardbaseConfigReachesEveryBackend(t *testing.T) {
	for _, name := range shardedBackends {
		t.Run(name, func(t *testing.T) {
			d, err := backends.New(name, nil, backends.Config{
				Config: shardbase.Config{Shards: 8, Arena: true, Clock: "tree"},
			})
			if err != nil {
				t.Fatal(err)
			}
			sh, ok := d.(detector.Sharded)
			if !ok {
				t.Fatal("backend does not mount sharded")
			}
			if got := sh.Shards(); got != 8 {
				t.Errorf("Shards() = %d, want 8", got)
			}
			aa, ok := d.(detector.ArenaAccounted)
			if !ok {
				t.Fatal("backend has no arena accounting")
			}
			if _, on := aa.ArenaStats(); !on {
				t.Error("arena requested but not enabled")
			}

			defer func() {
				if recover() == nil {
					t.Error(`Clock "Tree" did not panic`)
				}
			}()
			backends.New(name, nil, backends.Config{Config: shardbase.Config{Clock: "Tree"}})
		})
	}
}

// TestShardbaseVETable pins the version-epoch table behind SyncNoOp: an
// identifier past the table is unknown, one inside it that was never set
// reads ⊥ve, growth keeps published values, and identifiers at or above
// the cap are never covered.
func TestShardbaseVETable(t *testing.T) {
	var vt shardbase.VETable
	if _, ok := vt.Get(3); ok {
		t.Error("empty table covers identifier 3")
	}
	vt.Set(3, vclock.VEBottom)
	if _, ok := vt.Get(3); ok {
		t.Error("storing ⊥ve grew the table")
	}
	ve := vclock.MakeVersionEpoch(2, 5)
	vt.Set(5, ve)
	if got, ok := vt.Get(5); !ok || got != ve {
		t.Errorf("Get(5) = %v, %v; want %v, true", got, ok, ve)
	}
	if got, ok := vt.Get(3); !ok || got != vclock.VEBottom {
		t.Errorf("Get(3) = %v, %v; want ⊥ve, true", got, ok)
	}
	vt.Set(5000, vclock.VETop)
	if got, ok := vt.Get(5); !ok || got != ve {
		t.Errorf("after growth Get(5) = %v, %v; want %v, true", got, ok, ve)
	}
	if got, ok := vt.Get(5000); !ok || got != vclock.VETop {
		t.Errorf("Get(5000) = %v, %v; want ⊤ve, true", got, ok)
	}
	vt.Set(shardbase.DefaultIndexCap, ve)
	if _, ok := vt.Get(shardbase.DefaultIndexCap); ok {
		t.Error("identifier at the cap was published")
	}
}

// TestShardbaseSyncNoOpOnlyWhenEnabled: only a backend that enables
// version-epoch publication (PACER) ever proves a synchronization
// operation a no-op; every other sharded backend reports false.
func TestShardbaseSyncNoOpOnlyWhenEnabled(t *testing.T) {
	for _, name := range backends.Names() {
		d, err := backends.New(name, nil, backends.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sh, ok := d.(detector.Sharded)
		if !ok {
			continue
		}
		d.Release(0, 0)
		got := sh.SyncNoOp(event.Event{Kind: event.Acquire, Thread: 0, Target: 0})
		if want := name == "pacer"; got != want {
			t.Errorf("%s: SyncNoOp after its own release = %v, want %v", name, got, want)
		}
	}
}
