package core

import (
	"fmt"
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

func TestReusableThreadRequiresJoin(t *testing.T) {
	d := New(nil)
	d.Fork(0, 1)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("live thread offered for reuse")
	}
	d.ThreadExit(1)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("unjoined thread offered for reuse")
	}
	d.Join(0, 1)
	u, ok := d.ReusableThread(0)
	if !ok || u != 1 {
		t.Fatalf("ReusableThread(0) = %v, %v; want 1, true", u, ok)
	}
	if _, ok := d.ReusableThread(0); !ok {
		t.Fatal("ReusableThread changed the free list")
	}
	// Fork revives the slot: it is not offered again until joined again.
	d.Fork(0, u)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("revived slot offered again")
	}
	if d.dead[u] {
		t.Fatal("revived slot still marked terminated")
	}
}

// Only a thread that has received the joined thread's final version may
// reuse its slot: the joiner, or a thread that acquired a snapshot the
// joined thread published at that version.
func TestReusableThreadRequiresFinalVersion(t *testing.T) {
	d := New(nil)
	d.SampleBegin()
	d.Fork(0, 1)
	d.Write(1, 7, 100, 0)
	d.Release(1, 5) // published at a version inc then moves past
	d.Join(0, 1)
	d.Acquire(2, 5) // thread 2 holds an older snapshot of thread 1 only
	if _, ok := d.ReusableThread(2); ok {
		t.Fatal("slot offered to a thread that missed the joined thread's last version")
	}
	if u, ok := d.ReusableThread(0); !ok || u != 1 {
		t.Fatalf("joiner not offered the slot: %v, %v", u, ok)
	}

	// Outside sampling a release does not advance the version, so a
	// thread acquiring the thread's last release has its final clock.
	d2 := New(nil)
	d2.Fork(0, 1)
	d2.Release(1, 5)
	d2.Join(0, 1)
	if _, ok := d2.ReusableThread(2); ok {
		t.Fatal("slot offered to a thread with no edge from it")
	}
	d2.Acquire(2, 5)
	if u, ok := d2.ReusableThread(2); !ok || u != 1 {
		t.Fatalf("slot not offered after acquiring the final snapshot: %v, %v", u, ok)
	}
}

// An ablated detector publishes no version epochs and reuses nothing, but
// its Fork still revives a listed slot it is handed (a replayed trace).
func TestReusableThreadAblations(t *testing.T) {
	d := NewWithOptions(nil, shardbase.Config{}, Options{DisableSharing: true})
	d.Fork(0, 1)
	d.Join(0, 1)
	if _, ok := d.ReusableThread(0); ok {
		t.Fatal("ablated detector offered a slot")
	}
	before := d.threads[1].clock.Get(1)
	d.Fork(0, 1)
	if d.threads[1].retired != 0 || d.threads[1].clock.Get(1) <= before {
		t.Fatal("re-forked slot not revived")
	}
}

// Races involving a reused slot are attributed correctly: the new thread's
// epochs are strictly above the old thread's final time, so a thread that
// synchronized only with the old thread still races with the new one.
func TestReuseSoundness(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.SampleBegin()

	// Generation 1: thread 1 writes x7 and publishes through lock 5 at
	// its final version; thread 0 joins it.
	d.Fork(0, 1)
	d.Fork(0, 2)
	d.Write(1, 7, 100, 0)
	d.Release(1, 5)
	d.Acquire(2, 5) // thread 2 is ordered after the old occupant
	d.Read(2, 7, 110, 0)
	d.Join(0, 1)
	if col.DynamicCount() != 0 {
		t.Fatalf("ordered access raced: %v", col.Dynamic)
	}

	u, ok := d.ReusableThread(0)
	if !ok || u != 1 {
		t.Fatalf("expected slot 1 reusable, got %v, %v", u, ok)
	}
	// Generation 2: the new thread in slot 1 writes x8.
	d.Fork(0, u)
	d.Write(u, 8, 200, 0)
	// Thread 2 synchronized with the old occupant only; its access to x8
	// still races with the new occupant's write.
	d.Write(2, 8, 210, 0)
	if col.DynamicCount() != 1 {
		t.Fatalf("reused-slot race missed: %d reports (want 1)", col.DynamicCount())
	}
	last := col.Dynamic[0]
	if last.FirstThread != u || last.FirstSite != 200 {
		t.Errorf("race misattributed: %v", last)
	}
	// The old occupant's write to x7 is ordered before the new occupant's
	// fork; thread 2's read of x7 is not.
	d.Write(u, 7, 220, 0)
	if col.DynamicCount() != 2 {
		t.Fatalf("write after reuse: %d reports (want 2): %v", col.DynamicCount(), col.Dynamic)
	}
	if r := col.Dynamic[1]; r.FirstThread != 2 || r.FirstSite != 110 || r.SecondSite != 220 {
		t.Errorf("new occupant's write raced with %v, want thread 2's read", r)
	}
}

// With reuse, generations of fork/join keep the clock width bounded, in and
// out of sampling periods, with no other synchronization needed.
func TestReuseBoundsClockWidth(t *testing.T) {
	d := New(nil)
	for gen := 0; gen < 50; gen++ {
		if gen%10 == 5 {
			d.SampleBegin()
		} else if gen%10 == 0 {
			d.SampleEnd()
		}
		u, ok := d.ReusableThread(0)
		if !ok {
			u = vclock.Thread(d.ThreadSlots())
		}
		d.Fork(0, u)
		d.Acquire(u, 1)
		d.Write(u, 3, 1, 0)
		d.Release(u, 1)
		d.Join(0, u)
	}
	if d.ThreadSlots() != 2 {
		t.Errorf("thread slots = %d after 50 generations, want 2", d.ThreadSlots())
	}
}

// Reuse must not create false positives: a properly synchronized program
// over many generations stays silent.
func TestReuseNoFalsePositives(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.SampleBegin()
	for gen := 0; gen < 30; gen++ {
		u, ok := d.ReusableThread(0)
		if !ok {
			u = vclock.Thread(d.ThreadSlots())
		}
		d.Fork(0, u)
		d.Acquire(u, 1)
		d.Read(u, 7, 10, 0)
		d.Write(u, 7, 11, 0)
		d.Release(u, 1)
		d.Write(u, 8, 12, 0)
		d.Join(0, u)
		d.Read(0, 8, 13, 0)
	}
	if col.DynamicCount() != 0 {
		t.Fatalf("false positive across generations: %v", col.Dynamic[0])
	}
	if d.ThreadSlots() != 2 {
		t.Errorf("thread slots = %d, want 2", d.ThreadSlots())
	}
}

// A write epoch naming the joined thread does not hold its slot back: it
// still names thread 1 when the slot is reused, and compares as it would
// against a fresh identifier.
func TestReuseDespiteWriteEpoch(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.SampleBegin()
	d.Fork(0, 1)
	d.Write(1, 7, 100, 0)
	d.Join(0, 1)
	if u, ok := d.ReusableThread(0); !ok || u != 1 {
		t.Fatalf("slot named by a write epoch not offered: %v, %v", u, ok)
	}
	d.Fork(0, 1)
	d.Write(1, 7, 200, 0) // ordered after the old write: no race
	if col.DynamicCount() != 0 {
		t.Fatalf("new occupant raced with the old one: %v", col.Dynamic)
	}
	d.Write(3, 7, 301, 0) // a root thread races with the new write
	if col.DynamicCount() != 1 {
		t.Fatalf("%d reports, want 1: %v", col.DynamicCount(), col.Dynamic)
	}
	if r := col.Dynamic[0]; r.Kind != detector.WriteWrite || r.FirstThread != 1 || uint32(r.FirstSite) != 200 {
		t.Errorf("report = %v, want %v by thread 1 at site 200", r, detector.WriteWrite)
	}
}

// A read-map entry and a lock's version epoch naming the joined thread do
// not hold its slot back either: both still name thread 1 when it is
// reused, and each compares as it would against a fresh identifier.
func TestReuseDespiteReadEntryAndVepoch(t *testing.T) {
	col := detector.NewCollector()
	d := New(col.Report)
	d.SampleBegin()
	d.Fork(0, 1)
	d.Read(1, 8, 101, 0)
	d.Release(1, 5)
	d.Join(0, 1)
	if u, ok := d.ReusableThread(0); !ok || u != 1 {
		t.Fatalf("slot named by a read entry and a lock epoch not offered: %v, %v", u, ok)
	}
	d.Fork(0, 1)
	d.Acquire(1, 5) // the old release is in the new clock: Rule 4
	if col.DynamicCount() != 0 {
		t.Fatalf("new occupant raced with the old one: %v", col.Dynamic)
	}
	if d.SyncStats.FastJoins[detector.Sampling] == 0 {
		t.Error("acquire of the old occupant's release was not a fast join")
	}
	d.Write(2, 8, 300, 0) // a root thread races with the old read
	if col.DynamicCount() != 1 {
		t.Fatalf("%d reports, want 1: %v", col.DynamicCount(), col.Dynamic)
	}
	if r := col.Dynamic[0]; r.Kind != detector.ReadWrite || r.FirstThread != 1 || uint32(r.FirstSite) != 101 {
		t.Errorf("report = %v, want %v by thread 1 at site 101", r, detector.ReadWrite)
	}
}

// A revived slot's clock and version continue above everything the old
// thread published: outside sampling the join's inc is a no-op, so without
// the revival's own step the new thread would share its version epoch with
// the old thread's last release and SyncNoOp would dismiss the new
// thread's release of that lock, leaving the lock the old snapshot.
func TestReviveAdvancesPastPublished(t *testing.T) {
	d := New(nil)
	d.Fork(0, 1)
	d.Release(1, 5)
	old := d.locks[5]
	final := old.clock.Get(1)
	d.Join(0, 1)
	d.Fork(0, 1)
	tm := d.threads[1]
	if own := d.vepochOf(1, tm); own.Version() <= old.vepoch.Version() {
		t.Fatalf("revived version %v not above the old thread's published %v", own, old.vepoch)
	}
	if tm.clock.Get(1) <= final {
		t.Fatalf("revived clock component %d not above the old thread's %d", tm.clock.Get(1), final)
	}
	e := event.Event{Kind: event.Release, Thread: 1, Target: 5}
	if d.SyncNoOp(e) {
		t.Fatal("release by the revived thread dismissed as a repeat of the old thread's")
	}
}

// One thread forks while another joins its children: the forker never
// receives the joined threads' versions, so no slot qualifies for it, and
// each of its forks must examine only the slots listed since its last one
// instead of the whole, ever longer list. That holds also when the two
// synchronize (the joiner releases a lock after each join and the forker
// acquires it before each fork): every acquire raises the forker's version
// entry for the joiner, never for a joined child. The joiner's fork then
// reuses the oldest slot at the first comparison, and a slot revived
// meanwhile is never examined again.
func TestReuseScanForkerJoiner(t *testing.T) {
	for _, synced := range []bool{false, true} {
		t.Run(fmt.Sprintf("synced=%v", synced), func(t *testing.T) {
			const pairs = 2000
			const forker, joiner = 0, 1
			const m = event.Lock(7)
			d := New(nil)
			d.SampleBegin()
			d.Fork(forker, joiner)
			for k := 0; k < pairs; k++ {
				if synced {
					d.Acquire(forker, m)
					d.Release(forker, m)
				}
				if u, ok := d.ReusableThread(forker); ok {
					t.Fatalf("pair %d: slot %d offered to a thread that never received it", k, u)
				}
				u := vclock.Thread(d.ThreadSlots())
				d.Fork(forker, u)
				d.Write(u, event.Var(k), event.Site(k), 0)
				if synced {
					d.Acquire(joiner, m)
				}
				d.Join(joiner, u)
				if synced {
					d.Release(joiner, m)
				}
			}
			if _, ok := d.ReusableThread(forker); ok {
				t.Fatal("slot offered to a thread that never received it")
			}
			if d.reuseChecks != pairs {
				t.Fatalf("%d scans made %d reuse checks; want one per listed slot", pairs+1, d.reuseChecks)
			}
			checks := d.reuseChecks
			u, ok := d.ReusableThread(joiner)
			if !ok || u != 2 || d.reuseChecks != checks+1 {
				t.Fatalf("joiner offered %v, %v after %d checks; want the oldest slot 2 after one",
					u, ok, d.reuseChecks-checks)
			}
			d.Fork(joiner, u)
			if _, ok := d.ReusableThread(forker); ok || d.reuseChecks != checks+1 {
				t.Fatalf("forker's scan after a revival made %d checks; want none", d.reuseChecks-checks-1)
			}
		})
	}
}

// A thread whose check failed is offered the slot once it receives the
// joined thread's final version: receiving it lowers the watermark.
func TestReuseWatermarkClearedOnReceive(t *testing.T) {
	d := New(nil)
	d.Fork(0, 1)
	d.Fork(0, 2)
	d.Release(1, 5) // outside sampling: the lock holds thread 1's final version
	d.Join(0, 1)
	if u, ok := d.ReusableThread(2); ok {
		t.Fatalf("slot %d offered to a thread with no edge from it", u)
	}
	d.Acquire(2, 5)
	if u, ok := d.ReusableThread(2); !ok || u != 1 {
		t.Fatalf("slot not offered after acquiring the final snapshot: %v, %v", u, ok)
	}
}

// Revived slots' entries are compacted away: a thread forking and joining
// one child per generation keeps the free list at one entry.
func TestReuseFreeListCompacts(t *testing.T) {
	d := New(nil)
	d.SampleBegin()
	d.thread(0)
	for gen := 0; gen < 100; gen++ {
		u, ok := d.ReusableThread(0)
		if !ok {
			u = vclock.Thread(d.ThreadSlots())
		}
		d.Fork(0, u)
		d.Join(0, u)
	}
	if d.ThreadSlots() != 2 || len(d.free) != 1 {
		t.Fatalf("%d slots, free list of %d after 100 generations; want 2 slots and 1 entry",
			d.ThreadSlots(), len(d.free))
	}
}
