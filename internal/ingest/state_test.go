package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pacer/internal/fleet"
)

// apply is a test shorthand: build the push and run it through Apply.
func apply(s *State, instance string, epoch, seq, baseSeq uint64, rows ...fleet.TriageEntry) ApplyResult {
	p, entries := pushFor(instance, epoch, seq, baseSeq, rows...)
	return s.Apply(p, entries)
}

func racesJSON(t *testing.T, s *State) string {
	t.Helper()
	agg, err := s.Merged()
	if err != nil {
		t.Fatalf("Merged: %v", err)
	}
	blob, err := agg.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	return string(blob)
}

func TestIngestStateDeltaApply(t *testing.T) {
	s := NewState(StateOptions{})

	// A delta with no prior state has no base to stand on.
	if got := apply(s, "a", 7, 2, 1, entryFor(1, 10, 3, "a")); got != ApplyResync {
		t.Fatalf("delta onto empty state = %v, want resync", got)
	}

	// Full snapshot, then a delta on exactly that base.
	if got := apply(s, "a", 7, 1, 0, entryFor(1, 10, 3, "a")); got != ApplyMerged {
		t.Fatalf("full snapshot = %v, want merged", got)
	}
	if got := apply(s, "a", 7, 2, 1, entryFor(1, 10, 5, "a"), entryFor(2, 20, 1, "a")); got != ApplyMerged {
		t.Fatalf("delta on held base = %v, want merged", got)
	}

	// The delta upserted: var 1's count rose to 5, var 2 appeared.
	want := NewState(StateOptions{})
	apply(want, "a", 7, 2, 0, entryFor(1, 10, 5, "a"), entryFor(2, 20, 1, "a"))
	if got, exp := racesJSON(t, s), racesJSON(t, want); got != exp {
		t.Fatalf("delta-merged view diverged:\n got %s\nwant %s", got, exp)
	}

	// A retried (already-absorbed) delta is stale, not an error.
	if got := apply(s, "a", 7, 2, 1, entryFor(1, 10, 5, "a")); got != ApplyStale {
		t.Fatalf("replayed delta = %v, want stale", got)
	}
	// A delta skipping a base we do not hold forces a resync.
	if got := apply(s, "a", 7, 9, 5, entryFor(1, 10, 9, "a")); got != ApplyResync {
		t.Fatalf("delta on unknown base = %v, want resync", got)
	}
	// A delta from a restarted process (new epoch) forces a resync.
	if got := apply(s, "a", 8, 2, 1, entryFor(1, 10, 9, "a")); got != ApplyResync {
		t.Fatalf("delta across epochs = %v, want resync", got)
	}
	// A full snapshot from the new epoch replaces the state outright.
	if got := apply(s, "a", 8, 1, 0, entryFor(3, 30, 2, "a")); got != ApplyMerged {
		t.Fatalf("new-epoch full snapshot = %v, want merged", got)
	}
	want2 := NewState(StateOptions{})
	apply(want2, "a", 8, 1, 0, entryFor(3, 30, 2, "a"))
	if got, exp := racesJSON(t, s), racesJSON(t, want2); got != exp {
		t.Fatalf("epoch restart kept old state:\n got %s\nwant %s", got, exp)
	}
}

// TestIngestStateEvictsWholeEntry is the regression for the churn bug:
// eviction must drop the instance's seq/epoch tracking in the same pass
// as its triage state — verified by a post-eviction delta answering
// resync (no remembered base), not stale (remembered seq).
func TestIngestStateEvictsWholeEntry(t *testing.T) {
	s := NewState(StateOptions{Shards: 1, MaxBytes: 2500})
	apply(s, "old", 1, 5, 0, entryFor(1, 10, 3, "old"))
	// Enough fresh instances to push "old" out of the shard budget.
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("new-%d", i)
		if got := apply(s, name, 1, 1, 0, entryFor(uint32(i+100), uint32(1000+10*i), 1, name)); got != ApplyMerged {
			t.Fatalf("push %d = %v, want merged", i, got)
		}
	}
	if s.Evicted() == 0 {
		t.Fatalf("budget %d never evicted (bytes %d)", 2500, s.Bytes())
	}
	// "old" was least-recently-seen, so its whole entry — including the
	// seq tracking a delta would match against — must be gone.
	if got := apply(s, "old", 1, 6, 5, entryFor(1, 10, 4, "old")); got != ApplyResync {
		t.Fatalf("delta after eviction = %v, want resync (seq tracking must die with the entry)", got)
	}
	// And a stale-looking full push from the evicted instance merges
	// fresh rather than being dropped against remembered seq 5.
	if got := apply(s, "old", 1, 3, 0, entryFor(1, 10, 2, "old")); got != ApplyMerged {
		t.Fatalf("full push after eviction = %v, want merged", got)
	}
}

// TestIngestStateChurnBounded: a fleet whose pods get fresh instance
// names forever cannot grow the state past its configured bound.
func TestIngestStateChurnBounded(t *testing.T) {
	const maxBytes = 64 << 10
	s := NewState(StateOptions{Shards: 4, MaxBytes: maxBytes})
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("pod-%d", i)
		apply(s, name, uint64(i+1), 1, 0,
			entryFor(uint32(i), uint32(2*i), 1, name),
			entryFor(uint32(i+1), uint32(2*i+64), 2, name))
	}
	if got := s.Bytes(); got > maxBytes {
		t.Fatalf("state grew to %d accounted bytes, bound is %d", got, maxBytes)
	}
	if s.Evicted() == 0 {
		t.Fatal("churn never evicted")
	}
	if got := s.Instances(); got == 0 || got > 5000 {
		t.Fatalf("implausible instance count %d", got)
	}
}

func TestIngestStateTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	s := NewState(StateOptions{InstanceTTL: time.Minute, Clock: clock.Now})
	apply(s, "short", 1, 1, 0, entryFor(1, 10, 1, "short"))
	clock.Advance(45 * time.Second)
	apply(s, "fresh", 1, 1, 0, entryFor(2, 20, 1, "fresh"))
	clock.Advance(30 * time.Second) // "short" is now 75s old, "fresh" 30s

	// Reads sweep fully: only "fresh" survives.
	agg, err := s.Merged()
	if err != nil {
		t.Fatal(err)
	}
	races := agg.Races()
	if len(races) != 1 || races[0].Example.Var != 2 {
		t.Fatalf("after TTL sweep races = %+v, want just var 2", races)
	}
	if s.Expired() != 1 {
		t.Fatalf("Expired() = %d, want 1", s.Expired())
	}
	// Expiry removed the whole entry: a stale-seq full push from the
	// expired instance merges as new state.
	if got := apply(s, "short", 1, 1, 0, entryFor(1, 10, 1, "short")); got != ApplyMerged {
		t.Fatalf("post-expiry push = %v, want merged", got)
	}
}

// TestIngestStateStress exercises the sharded state's locking under
// -race: concurrent pushes (full + delta + stale replays), TTL expiry
// driven by a fake clock advancing concurrently, snapshot captures, and
// merged reads, all at once.
func TestIngestStateStress(t *testing.T) {
	clock := newFakeClock()
	s := NewState(StateOptions{
		Shards:      8,
		MaxBytes:    256 << 10,
		InstanceTTL: 500 * time.Millisecond,
		Clock:       clock.Now,
	})
	const (
		pushers   = 8
		perPusher = 200
	)
	var pushWG, loopWG sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < pushers; g++ {
		pushWG.Add(1)
		go func(g int) {
			defer pushWG.Done()
			inst := fmt.Sprintf("stress-%d", g)
			for i := 1; i <= perPusher; i++ {
				seq := uint64(i)
				if i > 1 && i%3 == 0 {
					// Delta on the previous seq; under concurrent TTL
					// expiry any outcome (merged/stale/resync) is legal,
					// the race detector is the assertion here.
					apply(s, inst, 1, seq, seq-1, entryFor(uint32(i), uint32(g*1000+i), i, inst))
				} else {
					apply(s, inst, 1, seq, 0, entryFor(uint32(i), uint32(g*1000+i), i, inst))
				}
				if i%7 == 0 {
					apply(s, inst, 1, seq, 0, entryFor(uint32(i), uint32(g*1000+i), i, inst)) // replay
				}
			}
		}(g)
	}
	// Clock mover: drives TTL expiry while pushes land.
	loopWG.Add(1)
	go func() {
		defer loopWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(40 * time.Millisecond)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	// Snapshot + merged-read loops.
	for r := 0; r < 2; r++ {
		loopWG.Add(1)
		go func() {
			defer loopWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
					snap := s.Snapshot()
					if snap.Version != SnapshotVersion {
						panic("bad snapshot version")
					}
					if _, err := s.Merged(); err != nil {
						panic(err)
					}
					s.Bytes()
					s.Rows()
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	pushWG.Wait()
	close(stop)
	loopWG.Wait()

	// Sanity after the storm: the state still serves a coherent view.
	if _, err := s.Merged(); err != nil {
		t.Fatalf("post-stress merge: %v", err)
	}
	if got := s.Bytes(); got > 256<<10 {
		t.Fatalf("state over its bound after stress: %d bytes", got)
	}
}

// checkAccounting requires every held instance's cost to be exactly what
// instCost computes from scratch, and each shard's bytes their sum.
func checkAccounting(t *testing.T, s *State, step string) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		var sum int64
		for name, ent := range sh.instances {
			if want := instCost(name, ent.entries); ent.cost != want {
				t.Errorf("%s: instance %s cost %d, instCost %d", step, name, ent.cost, want)
			}
			if ent.name != name {
				t.Errorf("%s: instance %s held under name %q", step, name, ent.name)
			}
			sum += ent.cost
		}
		if sh.bytes != sum {
			t.Errorf("%s: shard %d bytes %d, its instances cost %d", step, i, sh.bytes, sum)
		}
		sh.mu.Unlock()
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestIngestStateAccountingInvariant pushes randomized sequences of
// cumulative, delta, stale and resync pushes through State, with process
// restarts (a new epoch), Restore, eviction under a small MaxBytes and
// TTL expiry, and checks after every step that the incrementally kept
// costs equal a recount.
func TestIngestStateAccountingInvariant(t *testing.T) {
	kinds := []string{"write-write", "write-read", "read-write"}
	names := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff"}
	var evicted, expired uint64
	deltas := map[ApplyResult]int{} // delta pushes by outcome
	staleReplays := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := newFakeClock()
		s := NewState(StateOptions{Shards: 2, MaxBytes: 6000, InstanceTTL: time.Minute, Clock: clock.Now})
		type reporter struct {
			epoch, seq uint64
			rows       map[fleet.TriageKey]fleet.TriageEntry
		}
		reps := make([]*reporter, len(names))
		for i := range reps {
			reps[i] = &reporter{epoch: 1, rows: map[fleet.TriageKey]fleet.TriageEntry{}}
		}
		// row builds a race row of instance i; the first reporter is the
		// instance itself or another one, so both string cases are held,
		// and a later row for the same race can change it.
		row := func(i int) fleet.TriageEntry {
			first := names[i]
			if rng.Intn(3) == 0 {
				first = names[rng.Intn(len(names))]
			}
			site := uint32(rng.Intn(12))
			return fleet.TriageEntry{
				Var: uint32(rng.Intn(3)), Kind: kinds[rng.Intn(len(kinds))],
				FirstSite: site, SecondSite: site + uint32(rng.Intn(2)),
				FirstThread: 1, SecondThread: 2,
				Count: 1 + rng.Intn(50), Instances: 1, FirstInstance: first,
			}
		}
		push := func(i int, baseSeq uint64, rows map[fleet.TriageKey]fleet.TriageEntry) ApplyResult {
			list := fleet.SortedTriage(rows)
			return apply(s, names[i], reps[i].epoch, reps[i].seq, baseSeq, list...)
		}
		for step := 0; step < 300; step++ {
			i := rng.Intn(len(names))
			r := reps[i]
			op := rng.Intn(10)
			switch {
			case op < 3: // cumulative
				r.seq++
				for n := rng.Intn(3); n > 0; n-- {
					e := row(i)
					r.rows[e.Key()] = e
				}
				push(i, 0, r.rows)
			case op < 6: // delta on the previous push, or resync
				if r.seq == 0 {
					continue
				}
				delta := map[fleet.TriageKey]fleet.TriageEntry{}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					e := row(i)
					delta[e.Key()] = e
					r.rows[e.Key()] = e
				}
				r.seq++
				res := push(i, r.seq-1, delta)
				deltas[res]++
				if res == ApplyResync {
					r.seq++
					push(i, 0, r.rows)
				}
			case op < 7: // stale: a replay of an older push
				if r.seq < 2 {
					continue
				}
				seq := r.seq
				r.seq = uint64(1 + rng.Intn(int(seq-1)))
				if push(i, 0, r.rows) == ApplyStale {
					staleReplays++
				}
				r.seq = seq
			case op < 8: // the process restarts
				r.epoch++
				r.seq = 1
				r.rows = map[fleet.TriageKey]fleet.TriageEntry{}
				e := row(i)
				r.rows[e.Key()] = e
				push(i, 0, r.rows)
			case op < 9: // the collector restarts from its snapshot
				if err := s.Restore(s.Snapshot()); err != nil {
					t.Fatalf("seed %d step %d: Restore: %v", seed, step, err)
				}
			default: // time passes; pushes sweep expired instances
				clock.Advance(time.Duration(rng.Intn(80)) * time.Second)
			}
			checkAccounting(t, s, fmt.Sprintf("seed %d step %d op %d", seed, step, op))
		}
		// A snapshot file naming an instance twice keeps the later entry
		// and counts its bytes once.
		snap := s.Snapshot()
		if len(snap.Instances) > 0 {
			snap.Instances = append(snap.Instances, snap.Instances[0])
			if err := s.Restore(snap); err != nil {
				t.Fatalf("seed %d: Restore: %v", seed, err)
			}
			checkAccounting(t, s, fmt.Sprintf("seed %d: restored a repeated instance", seed))
		}
		evicted += s.Evicted()
		expired += s.Expired()
	}
	if evicted == 0 || expired == 0 {
		t.Fatalf("evicted %d, expired %d: the runs never exercised both", evicted, expired)
	}
	if deltas[ApplyMerged] == 0 || deltas[ApplyResync] == 0 || staleReplays == 0 {
		t.Fatalf("deltas by outcome %v, stale replays %d: the runs never exercised every path", deltas, staleReplays)
	}
}

// TestIngestStateSharesStrings: the state keeps no string of its own per
// held row. Every held kind (row and key) is the fleet package's
// constant, and every row the instance first reported itself shares the
// name its entry holds, after decoded cumulative and delta pushes and
// after Restore.
func TestIngestStateSharesStrings(t *testing.T) {
	s := NewState(StateOptions{})
	decodeApply := func(p *fleet.Push, rows ...fleet.TriageEntry) {
		t.Helper()
		blob, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		p.Races = blob
		var buf bytes.Buffer
		if err := fleet.EncodePush(&buf, p); err != nil {
			t.Fatal(err)
		}
		dp, entries, err := fleet.DecodePush(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Apply(dp, entries); got != ApplyMerged {
			t.Fatalf("push %+v = %v, want merged", p, got)
		}
	}
	row := func(v uint32, kind, first string) fleet.TriageEntry {
		e := entryFor(v, 10*v, 1, first)
		e.Kind = kind
		return e
	}
	for _, inst := range []string{"alpha", "beta"} {
		decodeApply(&fleet.Push{Version: fleet.SchemaVersion, Instance: inst, Epoch: 1, Seq: 1},
			row(1, "write-write", inst), row(2, "write-read", inst), row(3, "read-write", "other"))
		decodeApply(&fleet.Push{Version: fleet.SchemaVersionDelta, Instance: inst, Epoch: 1, Seq: 2, BaseSeq: 1},
			row(1, "write-write", inst), row(4, "read-write", inst), row(5, "write-read", "other"))
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	check := func(when string) {
		t.Helper()
		held := 0
		for i := range s.shards {
			sh := &s.shards[i]
			for name, ent := range sh.instances {
				if !same(name, ent.name) {
					t.Errorf("%s: %s: map key and entry name are two copies", when, name)
				}
				for k, e := range ent.entries {
					held++
					for _, kind := range []string{e.Kind, k.Kind} {
						static, ok := fleet.StaticKind(kind)
						if !ok || !same(kind, static) {
							t.Errorf("%s: %s var %d: kind %q is not the static constant", when, name, e.Var, kind)
						}
					}
					if e.FirstInstance == name && !same(e.FirstInstance, ent.name) {
						t.Errorf("%s: %s var %d: own FirstInstance is a copy of its own", when, name, e.Var)
					}
				}
			}
		}
		if held != 10 {
			t.Fatalf("%s: %d rows held, want 10", when, held)
		}
	}
	check("after pushes")
	blob, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap SnapshotFile
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	check("after Restore")

	// An unknown kind is still rejected, quoted as it was received.
	bogus := &fleet.Push{Version: fleet.SchemaVersion, Instance: "alpha", Seq: 3,
		Races: json.RawMessage(`[{"var":1,"kind":"bogus","first_site":1,"second_site":2,"count":1,"instances":1,"first_instance":"alpha"}]`)}
	var buf bytes.Buffer
	if err := fleet.EncodePush(&buf, bogus); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fleet.DecodePush(&buf, 0); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("bogus kind: err = %v, want a rejection quoting \"bogus\"", err)
	}
}
