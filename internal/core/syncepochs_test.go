package core

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// checkSyncEpochs pins the published version epochs to the analysis state:
// for every thread and every lock and volatile, SyncNoOp may report a
// no-op only when the state proves it (soundness), and must report one
// whenever the state proves it for an object that has published a version
// epoch (every publication point is covered).
func (d *Detector) checkSyncEpochs(t *testing.T, at int) {
	t.Helper()
	for ti, tm := range d.threads {
		if tm == nil {
			continue
		}
		th := vclock.Thread(ti)
		own := d.vepochOf(th, tm)
		check := func(k event.Kind, id uint32, s *syncMeta) {
			var want bool
			switch k {
			case event.Acquire, event.VolRead:
				want = s.vepoch == vclock.VEBottom ||
					!s.vepoch.IsTop() && s.vepoch.Thread() == th && s.vepoch.Version() <= own.Version()
			default:
				want = !d.sampling && s.vepoch == own
			}
			e := event.Event{Kind: k, Thread: th, Target: id}
			got := d.SyncNoOp(e)
			if got && !want || want && !got && s.vepoch != vclock.VEBottom {
				t.Fatalf("after event %d: SyncNoOp(%v) = %v, state says %v (object %v, Ver(t) %v, sampling %v)",
					at, e, got, want, s.vepoch, own, d.sampling)
			}
		}
		for m, s := range d.locks {
			check(event.Acquire, uint32(m), s)
			check(event.Release, uint32(m), s)
		}
		for vx, s := range d.vols {
			check(event.VolRead, uint32(vx), s)
			check(event.VolWrite, uint32(vx), s)
		}
	}
}

// TestSyncEpochsMirrorState replays random traces with sampling periods,
// forks, joins, thread exits and identifier reuse, and checks the published
// version epochs against the analysis state after every event.
func TestSyncEpochsMirrorState(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := event.Generate(event.GenConfig{
			Threads: 5, Vars: 6, Locks: 3, Volatiles: 2,
			Steps: 1200, PGuarded: 0.45, PWrite: 0.4, PSample: 0.05, Seed: seed,
		})
		d := New(nil)
		for i, e := range tr {
			detector.Apply(d, e)
			if e.Kind == event.Join {
				d.ThreadExit(vclock.Thread(e.Target))
			}
			if i%29 == 0 && e.Kind != event.SampleBegin && e.Kind != event.SampleEnd {
				// Fork a thread that does nothing into a reusable slot.
				if u, ok := d.ReusableThread(e.Thread); ok {
					d.Fork(e.Thread, u)
				}
			}
			d.checkSyncEpochs(t, i)
		}
	}
}

// TestSyncNoOpAblations: an ablated detector publishes no version epochs,
// so no synchronization operation is ever proved a no-op, while the full
// algorithm proves every kind of repeat below.
func TestSyncNoOpAblations(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"DisableVersions", Options{DisableVersions: true}},
		{"DisableSharing", Options{DisableSharing: true}},
		{"DisableDiscard", Options{DisableDiscard: true}},
	} {
		d := NewWithOptions(nil, shardbase.Config{}, tc.opts)
		d.Release(0, 0)
		d.VolWrite(0, 0)
		for _, k := range []event.Kind{event.Acquire, event.Release, event.VolRead, event.VolWrite} {
			e := event.Event{Kind: k, Thread: 0, Target: 0}
			if got, want := d.SyncNoOp(e), tc.opts == (Options{}); got != want {
				t.Errorf("%s: SyncNoOp(%v) = %v, want %v", tc.name, e, got, want)
			}
		}
	}
}
