package core

import (
	"fmt"
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// checkWellFormed verifies Definition 1 (well-formedness) and, inside
// sampling periods, Definition 2 (strict well-formedness), plus the
// version invariant of Lemma 7: Ver(o) ≼ C_t.ver ⟹ S_o.vc ⊑ C_t.vc.
func checkWellFormed(d *Detector) error {
	live := func(t vclock.Thread) *threadMeta {
		if int(t) < len(d.threads) {
			return d.threads[t]
		}
		return nil
	}
	for ti := range d.threads {
		t := vclock.Thread(ti)
		tm := live(t)
		if tm == nil {
			continue
		}
		// 1-2, 5-8: all other clocks' and version vectors' component for t
		// is bounded by t's own.
		for ui := range d.threads {
			u := vclock.Thread(ui)
			um := live(u)
			if um == nil || u == t {
				continue
			}
			if um.clock.Get(t) > tm.clock.Get(t) {
				return fmt.Errorf("C_%d.vc(%d)=%d > C_%d.vc(%d)=%d", u, t, um.clock.Get(t), t, t, tm.clock.Get(t))
			}
			if d.sampling && um.clock.Get(t) >= tm.clock.Get(t) {
				return fmt.Errorf("strict: C_%d.vc(%d)=%d >= C_%d.vc(%d)=%d during sampling",
					u, t, um.clock.Get(t), t, t, tm.clock.Get(t))
			}
			if um.ver.Get(t) > tm.ver.Get(t) {
				return fmt.Errorf("C_%d.ver(%d) > C_%d.ver(%d)", u, t, t, t)
			}
		}
		for id, s := range d.locks {
			if s.clock.Get(t) > tm.clock.Get(t) {
				return fmt.Errorf("L_%d.vc(%d) > C_%d.vc(%d)", id, t, t, t)
			}
			if d.sampling && s.clock.Get(t) >= tm.clock.Get(t) {
				return fmt.Errorf("strict: L_%d.vc(%d) >= C_%d.vc(%d) during sampling", id, t, t, t)
			}
		}
		for id, s := range d.vols {
			if s.clock.Get(t) > tm.clock.Get(t) {
				return fmt.Errorf("V_%d.vc(%d) > C_%d.vc(%d)", id, t, t, t)
			}
			if d.sampling && s.clock.Get(t) >= tm.clock.Get(t) {
				return fmt.Errorf("strict: V_%d.vc(%d) >= C_%d.vc(%d) during sampling", id, t, t, t)
			}
		}
		// 3-4: variable metadata components bounded by owners' clocks.
		var bad error
		d.Range(func(x event.Var, m *varMeta) bool {
			if !m.w.IsZero() && m.w.Thread() == t && m.w.Clock() > tm.clock.Get(t) {
				bad = fmt.Errorf("W_%d = %v exceeds C_%d.vc(%d)", x, m.w, t, t)
				return false
			}
			m.r.ForEach(func(e vclock.ReadEntry) {
				if e.T == t && e.C > tm.clock.Get(t) {
					bad = fmt.Errorf("R_%d(%d)=%d exceeds C_%d.vc(%d)=%d", x, t, e.C, t, t, tm.clock.Get(t))
				}
			})
			return bad == nil
		})
		if bad != nil {
			return bad
		}
		// Lemma 7: versions imply vector clock ordering.
		checkVE := func(name string, s *syncMeta) error {
			if s.vepoch.Leq(tm.ver) && !s.clock.Leq(tm.clock) {
				return fmt.Errorf("%s: Ver=%v ≼ ver_%d but clock ⋢ C_%d", name, s.vepoch, t, t)
			}
			return nil
		}
		for id, s := range d.locks {
			if err := checkVE(fmt.Sprintf("lock %d", id), s); err != nil {
				return err
			}
		}
		for id, s := range d.vols {
			if err := checkVE(fmt.Sprintf("volatile %d", id), s); err != nil {
				return err
			}
		}
		for ui := range d.threads {
			u := vclock.Thread(ui)
			um := live(u)
			if um == nil || u == t {
				continue
			}
			uve := d.vepochOf(u, um)
			if uve.Leq(tm.ver) && !um.clock.Leq(tm.clock) {
				return fmt.Errorf("thread %d: Ver ≼ ver_%d but clock ⋢", u, t)
			}
		}
	}
	return nil
}

func TestInvariantsHoldOnRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := event.Generate(event.GenConfig{
			Threads: 5, Vars: 6, Locks: 3, Volatiles: 2,
			Steps: 1200, PGuarded: 0.45, PWrite: 0.4, PSample: 0.05, Seed: seed,
		})
		d := New(nil)
		for i, e := range tr {
			detector.Apply(d, e)
			if err := checkWellFormed(d); err != nil {
				t.Fatalf("seed %d, after event %d (%v): %v", seed, i, e, err)
			}
		}
	}
}

func TestInvariantsHoldWithOptions(t *testing.T) {
	for _, opts := range []Options{
		{DisableVersions: true},
		{DisableSharing: true},
		{DisableVersions: true, DisableSharing: true},
	} {
		tr := event.Generate(event.GenConfig{
			Threads: 5, Vars: 6, Locks: 3, Volatiles: 2,
			Steps: 1200, PGuarded: 0.45, PWrite: 0.4, PSample: 0.05, Seed: 11,
		})
		d := NewWithOptions(nil, shardbase.Config{}, opts)
		for i, e := range tr {
			detector.Apply(d, e)
			if err := checkWellFormed(d); err != nil {
				t.Fatalf("opts %+v, after event %d (%v): %v", opts, i, e, err)
			}
		}
	}
}

// Shared clocks must never be mutated in place: a lock that shallow-copied
// a thread's clock keeps the old snapshot after the thread's clock
// advances.
func TestSharedClockSnapshotIsolation(t *testing.T) {
	d := New(nil)
	d.Release(0, 1) // non-sampling: shallow copy, clock shared with t0
	lk := d.locks[1]
	tm := d.thread(0)
	if lk.clock != tm.clock {
		t.Fatal("non-sampling release did not share the clock")
	}
	if !tm.clock.Shared() {
		t.Fatal("thread clock not marked shared")
	}
	snapshot := lk.clock.Get(0)

	d.SampleBegin() // increments t0's clock: must clone, not mutate
	if d.thread(0).clock == lk.clock {
		t.Fatal("SampleBegin mutated the shared clock in place")
	}
	if lk.clock.Get(0) != snapshot {
		t.Fatalf("lock snapshot changed: %d -> %d", snapshot, lk.clock.Get(0))
	}
	if d.thread(0).clock.Get(0) != snapshot+1 {
		t.Fatalf("thread clock = %d, want %d", d.thread(0).clock.Get(0), snapshot+1)
	}
}

// A join into a thread whose clock is shared must clone before joining.
func TestJoinClonesSharedClock(t *testing.T) {
	d := New(nil)
	d.SampleBegin()
	d.Release(1, 2) // deep copy (sampling), lock 2 gets t1's clock, t1 increments
	d.SampleEnd()
	d.Release(0, 1) // shallow: t0's clock shared with lock 1
	lk1 := d.locks[1]
	if lk1.clock != d.thread(0).clock {
		t.Fatal("expected sharing")
	}
	before := lk1.clock.Get(1)
	d.Acquire(0, 2) // t0 joins lock 2's clock (concurrent) → must clone
	if lk1.clock.Get(1) != before {
		t.Fatal("join mutated a shared snapshot")
	}
	if d.thread(0).clock.Get(1) <= before {
		t.Fatal("join did not take effect on the thread clock")
	}
}

// The version fast path must fire for repeated communication over the same
// lock and must never fire when the version epoch is ⊤ve.
func TestVersionEpochTopDisablesFastJoin(t *testing.T) {
	d := New(nil)
	// Two threads write the same volatile concurrently so its version
	// epoch becomes ⊤ve.
	d.SampleBegin()
	d.VolWrite(0, 1)
	d.VolWrite(1, 1) // t1's clock does not subsume t0's → join, ⊤ve
	if ve := d.vols[1].vepoch; !ve.IsTop() {
		t.Fatalf("volatile vepoch = %v, want ⊤ve", ve)
	}
	// Now volatile reads cannot use the version fast path.
	before := d.SyncStats.FastJoins[detector.Sampling]
	d.VolRead(2, 1)
	if d.SyncStats.FastJoins[detector.Sampling] != before {
		t.Error("fast join fired against a ⊤ve version epoch")
	}
}

// vepochOf round-trips through the version vector.
func TestVepochOf(t *testing.T) {
	d := New(nil)
	tm := d.thread(3)
	ve := d.vepochOf(3, tm)
	if ve.Thread() != 3 || ve.Version() != 1 {
		t.Fatalf("initial vepoch = %v, want v1@3", ve)
	}
	d.SampleBegin() // increments every live thread's clock and version
	ve = d.vepochOf(3, d.thread(3))
	if ve.Version() != 2 {
		t.Fatalf("vepoch after sbegin = %v, want v2@3", ve)
	}
	d.Release(3, 0) // sampled release increments again
	ve = d.vepochOf(3, d.thread(3))
	if ve.Version() != 3 {
		t.Fatalf("vepoch after sampled release = %v, want v3@3", ve)
	}
}
