package shardbase_test

import (
	"math"
	"sync"
	"sync/atomic"
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
	var on detector.State
	on.SetAlwaysOn()
	if w := on.Word(); w != 1 {
		t.Errorf("SetAlwaysOn word = %d, want 1", w)
	}

	var s detector.State
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

// newStore returns a Store of uint32 records.
func newStore() *shardbase.Store[uint32] {
	s := new(shardbase.Store[uint32])
	s.Init(nil, shardbase.Config{Shards: 8})
	return s
}

// TestShardbaseIndexCaps pins TableBound as the record-table bound: below
// it a record is visible lock-free (Peek); at or above it, up to the top
// of the identifier space, only through its shard's Lookup.
func TestShardbaseIndexCaps(t *testing.T) {
	if shardbase.TableBound != 1<<22 {
		t.Errorf("TableBound = %d, want %d", shardbase.TableBound, 1<<22)
	}
	const bound = shardbase.TableBound
	s := newStore()
	m := s.Insert(s.ShardOf(bound-1), bound-1)
	if s.Peek(bound-1) != m {
		t.Error("id below the bound is not in the table")
	}
	for _, x := range []event.Var{bound, bound + 1, math.MaxUint32} {
		m := s.Insert(s.ShardOf(x), x)
		if s.Peek(x) != nil {
			t.Errorf("id %d at or above the bound is in the table", x)
		}
		if s.Lookup(s.ShardOf(x), x) != m {
			t.Errorf("id %d at or above the bound is not in its shard map", x)
		}
	}
}

// TestRecordTableOneHome pins that every record lives in exactly one
// structure: identifiers below the bound only in the table, the rest only
// in their shard's map. It covers the page edges and the top of the
// identifier space.
func TestRecordTableOneHome(t *testing.T) {
	const bound = shardbase.TableBound
	s := newStore()
	ids := []event.Var{0, 4095, 4096, bound - 1, bound, 0xFFFFFFFE}
	for _, x := range ids {
		m := s.Insert(s.ShardOf(x), x)
		*m = uint32(x)
	}
	for _, x := range ids {
		_, inMap := s.Table[s.ShardOf(x)].Vars[x]
		inTable := s.Peek(x) != nil
		if want := x < bound; inTable != want || inMap == want {
			t.Errorf("id %d: in table %v, in shard map %v; want it in exactly the %s", x, inTable, inMap,
				map[bool]string{true: "table", false: "shard map"}[want])
		}
		if m := s.Lookup(s.ShardOf(x), x); m == nil || *m != uint32(x) {
			t.Errorf("Lookup(%d) = %v, want its record", x, m)
		}
	}
	if got := s.VarsTracked(); got != len(ids) {
		t.Errorf("VarsTracked = %d, want %d", got, len(ids))
	}
}

// TestRecordTableVarsTrackedAfterDeletes: inserts and deletes on both
// sides of the bound leave VarsTracked and Range exact, a deleted record
// is gone from Lookup and Peek, and an identifier can be inserted again.
func TestRecordTableVarsTrackedAfterDeletes(t *testing.T) {
	const base = shardbase.TableBound - 5000
	s := newStore()
	live := map[event.Var]*uint32{}
	for i := 0; i < 300; i++ {
		x := event.Var(base + i*37) // both sides of the bound, three pages
		live[x] = s.Insert(s.ShardOf(x), x)
	}
	for x := range live {
		if (x-base)%3 == 0 {
			s.Delete(s.ShardOf(x), x)
			delete(live, x)
			if s.Lookup(s.ShardOf(x), x) != nil || s.Peek(x) != nil {
				t.Fatalf("id %d still found after Delete", x)
			}
		}
	}
	if got := s.VarsTracked(); got != len(live) {
		t.Fatalf("VarsTracked = %d after deletes, want %d", got, len(live))
	}
	seen := map[event.Var]bool{}
	s.Range(func(x event.Var, m *uint32) bool {
		if live[x] != m || seen[x] {
			t.Errorf("Range visited id %d (%p) once more or with the wrong record", x, m)
		}
		seen[x] = true
		return true
	})
	if len(seen) != len(live) {
		t.Errorf("Range visited %d records, want %d", len(seen), len(live))
	}
	s.Insert(s.ShardOf(base), base)
	s.Insert(s.ShardOf(base+5001), base+5001) // 5001 = 37·135 + 6: never inserted before
	if got := s.VarsTracked(); got != len(live)+2 {
		t.Errorf("VarsTracked = %d after re-inserting, want %d", got, len(live)+2)
	}
}

// TestRecordTableConcurrentPages is the record table's race stress: one
// writer goroutine per shard inserts its shard's identifiers in the
// table's last pages under its shard's lock, page by page, all writers
// starting each page together, so they race to install the same page
// (adjacent identifiers hash to different shards); the last round goes
// past the bound, into the shard maps. Lock-free readers Peek across
// every page meanwhile. A record a reader finds must be the one inserted
// for that identifier; afterwards every record must be found, and
// counted, exactly once. Run it under -race.
func TestRecordTableConcurrentPages(t *testing.T) {
	const pages, bound = 32, shardbase.TableBound
	const base = bound - pages*4096
	s := new(shardbase.Store[atomic.Uint32])
	s.Init(nil, shardbase.Config{Shards: 4})
	// ids[si][p] are shard si's identifiers in the p-th of the last pages;
	// page `pages` lies past the bound.
	ids := make([][pages + 1][]event.Var, s.Shards())
	for x := event.Var(base); x < bound+2000; x += 3 {
		si, p := s.ShardOf(x), (x-base)/4096
		ids[si][p] = append(ids[si][p], x)
	}
	var writers, readers sync.WaitGroup
	var start [pages + 1]sync.WaitGroup
	for p := range start {
		start[p].Add(len(ids))
	}
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for x := event.Var(base + r); x < bound; x += 97 {
					if m := s.Peek(x); m != nil {
						if got := m.Load(); got != 0 && got != uint32(x)+1 {
							t.Errorf("Peek(%d) found the record of id %d", x, got-1)
							return
						}
					}
				}
			}
		}(r)
	}
	for si := range ids {
		writers.Add(1)
		go func(si int) {
			defer writers.Done()
			for p := range ids[si] {
				start[p].Done()
				start[p].Wait()
				for _, x := range ids[si][p] {
					if s.Lookup(si, x) != nil {
						t.Errorf("id %d found before its insert", x)
					}
					s.Insert(si, x).Store(uint32(x) + 1)
				}
			}
		}(si)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	n := 0
	for si := range ids {
		for _, page := range ids[si] {
			for _, x := range page {
				if m := s.Lookup(si, x); m == nil || m.Load() != uint32(x)+1 {
					t.Fatalf("id %d lost its record", x)
				}
			}
			n += len(page)
		}
	}
	if got := s.VarsTracked(); got != n {
		t.Errorf("VarsTracked = %d, want %d", got, n)
	}
}

// TestShardbaseThreadPubGrowsGeometrically: announcing threads one at a
// time, as forks do, allocates O(log n) times, and every published epoch
// survives the growth.
func TestShardbaseThreadPubGrowsGeometrically(t *testing.T) {
	const n = 8192
	var tp shardbase.ThreadPub
	c := vclock.New(1)
	c.Set(0, 3)
	allocs := testing.AllocsPerRun(1, func() {
		tp = shardbase.ThreadPub{}
		for i := 1; i <= n; i++ {
			tp.Ensure(i)
			if i == 1 {
				tp.Publish(0, c)
			}
		}
	})
	// Doubling from one slot reaches 8192 in 14 growths, each one slice
	// and one header.
	if allocs > 2*14 {
		t.Errorf("Ensure(1..%d) allocated %v times, want O(log n) (at most %d)", n, allocs, 2*14)
	}
	if got := tp.Epoch(0); got != uint64(vclock.MakeEpoch(0, 3)) {
		t.Errorf("thread 0's epoch reads %#x after growth, want %#x", got, uint64(vclock.MakeEpoch(0, 3)))
	}
	if tp.Epoch(n-1) != 0 || tp.Clock(n-1) != nil {
		t.Error("a thread that never published reads a published slot")
	}
}

// shardedBackends is every registry entry that mounts the shardbase store.
var shardedBackends = []string{"pacer", "fasttrack", "o1samples", "literace"}

// TestShardbaseConfigReachesEveryBackend pins that every sharded backend
// honors the one store configuration's shard count.
func TestShardbaseConfigReachesEveryBackend(t *testing.T) {
	for _, name := range shardedBackends {
		t.Run(name, func(t *testing.T) {
			d, err := backends.New(name, nil, backends.Config{
				Config: shardbase.Config{Shards: 8},
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
		})
	}
}

// TestShardbaseVETable pins the version-epoch table behind SyncNoOp: an
// identifier below the cap that was never set reads ⊥ve, inside the table
// or past it (even before the table exists), growth keeps published
// values, and identifiers at or above the cap are never covered.
func TestShardbaseVETable(t *testing.T) {
	var vt shardbase.VETable
	if got, ok := vt.Get(3); !ok || got != vclock.VEBottom {
		t.Errorf("empty table: Get(3) = %v, %v; want ⊥ve, true", got, ok)
	}
	vt.Set(3, vclock.VEBottom)
	if got, ok := vt.Get(3); !ok || got != vclock.VEBottom {
		t.Errorf("after storing ⊥ve: Get(3) = %v, %v; want ⊥ve, true", got, ok)
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
	if got, ok := vt.Get(1 << 20); !ok || got != vclock.VEBottom {
		t.Errorf("Get(1<<20) past the table = %v, %v; want ⊥ve, true", got, ok)
	}
	vt.Set(shardbase.TableBound, ve)
	if _, ok := vt.Get(shardbase.TableBound); ok {
		t.Error("identifier at the bound was published")
	}
	if _, ok := vt.Get(shardbase.TableBound - 1); !ok {
		t.Error("identifier just below the bound reads unknown")
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
