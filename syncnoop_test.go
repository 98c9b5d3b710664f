package pacer_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pacer"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/tracegen"
)

// Tests of the lock-free sync dismissal: a synchronization operation whose
// version epochs prove it a no-op (Table 7 Rule 4 for joins, a
// snapshot-repeating shallow copy for releases) is counted on its thread's
// own cell and never takes the epoch lock.

// syncStats is the part of Stats the dismissal must keep exact.
type syncStats struct {
	SyncOps, FastJoins, SlowJoins, ShallowCopies, DeepCopies uint64
}

func syncStatsOf(s pacer.Stats) syncStats {
	return syncStats{s.SyncOps, s.FastJoins, s.SlowJoins, s.ShallowCopies, s.DeepCopies}
}

// replayApply replays tr through Apply and returns the race multiset, the
// sync counters, and how many sync operations were dismissed lock-free.
func replayApply(tr event.Trace, opts pacer.Options) (map[pacer.Race]int, syncStats, uint64) {
	races := map[pacer.Race]int{}
	opts.OnRace = func(r pacer.Race) { races[r]++ }
	d := pacer.New(opts)
	for _, e := range tr {
		d.Apply(e)
	}
	return races, syncStatsOf(d.Stats()), d.SyncDismissals()
}

// TestSyncNoOpDifferential replays every corpus trace and a tracegen batch
// through a concurrent front-end with no TraceSink (dismissals on) and a
// Serialized one (dismissals off). Both use the same Seed and PeriodOps 64,
// a flush batch of one, so both roll their periods at the same operation:
// the race multisets and the sync counters must be identical.
func TestSyncNoOpDifferential(t *testing.T) {
	traces := map[string]event.Trace{}
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus missing: %v", err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".trace" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := event.ReadAnyTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		traces[ent.Name()] = tr
	}
	for seed := int64(0); seed < 40; seed++ {
		traces[fmt.Sprintf("tracegen-%d", seed)] = tracegen.Generate(tracegen.CorpusConfig(seed))
	}
	var dismissed uint64
	for name, tr := range traces {
		for _, rate := range []float64{0, 0.1, 0.5} {
			opts := pacer.Options{SamplingRate: rate, PeriodOps: 64, Seed: 7}
			gotRaces, got, n := replayApply(tr, opts)
			opts.Serialized = true
			wantRaces, want, _ := replayApply(tr, opts)
			dismissed += n
			if got != want {
				t.Errorf("%s r=%g: sync counters %+v with dismissals, %+v serialized", name, rate, got, want)
			}
			if len(gotRaces) != len(wantRaces) {
				t.Errorf("%s r=%g: %d distinct races with dismissals, %d serialized", name, rate, len(gotRaces), len(wantRaces))
				continue
			}
			for r, k := range wantRaces {
				if gotRaces[r] != k {
					t.Errorf("%s r=%g: race %v reported %d times with dismissals, %d serialized", name, rate, r, gotRaces[r], k)
				}
			}
		}
	}
	if dismissed == 0 {
		t.Fatal("no sync operation was dismissed: the differential compared nothing")
	}
}

// scenario replays a hand-built trace and checks that the event at index
// locked took the epoch lock (it was not dismissed) and that no race was
// reported, and returns the detector. Every thread is registered first,
// so none is on the spill cell.
func scenario(t *testing.T, threads int, tr event.Trace, locked int) *pacer.Detector {
	t.Helper()
	var races []pacer.Race
	d := pacer.New(pacer.Options{PeriodOps: 1 << 20, OnRace: func(r pacer.Race) { races = append(races, r) }})
	for i := 0; i < threads; i++ {
		d.NewThread()
	}
	for i, e := range tr {
		before := d.SyncDismissals()
		d.Apply(e)
		if i == locked && d.SyncDismissals() != before {
			t.Errorf("event %d (%v) was dismissed lock-free; it must take the locked path", i, e)
		}
	}
	if len(races) != 0 {
		t.Errorf("reported %v; the trace is race-free", races)
	}
	return d
}

// TestSyncNoOpReleaseAfterRule6Join: A releases m, then acquires n, which
// carries B's sampled write (a Rule 6 join that advances A's version). A's
// next release of m must copy A's new clock into m, or C, acquiring m,
// misses B's write and reports a false race. A check comparing only the
// thread in m's version epoch, not the version, dismisses that release.
func TestSyncNoOpReleaseAfterRule6Join(t *testing.T) {
	const a, b, c = 0, 1, 2
	const m, n, x = 0, 1, 0
	tr := dtest.NewTB().
		SBegin().Write(b, x).Rel(b, n).SEnd().
		Rel(a, m).
		Acq(a, n). // Rule 6: A's version advances
		Rel(a, m). // index 6: must not be dismissed
		Acq(c, m).Read(c, x).
		Trace
	scenario(t, 3, tr, 6)
}

// TestSyncNoOpReleaseInSampling: a release inside a sampling period is a
// deep copy plus an increment, never a no-op. SampleBegin advances every
// live thread's version, but skips terminated ones, so a joined thread's
// version still equals the version epoch of the lock it last released:
// only the state word keeps its release inside the period on the locked
// path. A check without the state word dismisses it.
func TestSyncNoOpReleaseInSampling(t *testing.T) {
	const main, u, m = 0, 1, 0
	tr := dtest.NewTB().
		Fork(main, u).Rel(u, m).Join(main, u).
		SBegin().
		Rel(u, m). // index 4: inside the period, must not be dismissed
		Trace
	d := scenario(t, 2, tr, 4)
	if s := d.Stats(); s.DeepCopies != 1 {
		t.Errorf("DeepCopies = %d, want 1: the sampled release was not analyzed", s.DeepCopies)
	}
}

// TestSyncNoOpAcquireFromOtherThread: B's sampled write reaches A only
// through m, which B released last. A's version is ahead of B's, so a
// check comparing only versions, not the thread m's version epoch names,
// dismisses A's acquire and A's read is reported as a false race. The
// dismissal keeps no cache of other threads' epochs, so the acquire takes
// the locked path even when A already holds B's snapshot.
func TestSyncNoOpAcquireFromOtherThread(t *testing.T) {
	const a, b = 0, 1
	const l, m, x = 0, 1, 0
	tr := dtest.NewTB().
		Rel(a, l). // A's first operation creates its clock before B's
		SBegin().  // A's version advances; B has no clock yet
		Write(b, x).Rel(b, m).
		Acq(a, m). // index 4: m names B, must not be dismissed
		Read(a, x).
		Trace
	scenario(t, 2, tr, 4)
	tr = dtest.NewTB().
		Rel(a, l).
		Rel(b, m).Acq(a, m).
		Acq(a, m). // index 3: A holds B's snapshot, but m still names B
		Trace
	scenario(t, 2, tr, 3)
}

// TestSyncNoOpNeverOnSpillCell: a thread without a counter cell of its own
// is never dismissed, even when the rules would allow it; once the thread
// is registered, the same operations are.
func TestSyncNoOpNeverOnSpillCell(t *testing.T) {
	const tid, m, vx = 7, 0, 0
	redundant := dtest.NewTB().
		Rel(tid, m).Acq(tid, m).Rel(tid, m).
		VolWrite(tid, vx).VolRead(tid, vx).VolWrite(tid, vx).
		Trace
	d := pacer.New(pacer.Options{})
	for _, e := range redundant {
		d.Apply(e)
	}
	if n := d.SyncDismissals(); n != 0 {
		t.Fatalf("%d operations of an unregistered thread dismissed, want 0", n)
	}
	for d.NewThread() < tid { // registers the thread
	}
	for _, e := range redundant {
		d.Apply(e)
	}
	if n := d.SyncDismissals(); n == 0 {
		t.Fatal("no operation of the registered thread dismissed")
	}
	if s := d.Stats(); s.SyncOps != uint64(2*len(redundant)) {
		t.Errorf("SyncOps = %d, want %d", s.SyncOps, 2*len(redundant))
	}
}

// TestSyncNoOpStress runs goroutines on a shared mutex, private mutexes and
// volatiles while periods of 64 operations roll at rate 0.5, so sampling
// transitions race with dismissals, and polls Stats throughout. Every
// issued operation is counted in SyncOps, and no variable guarded by a
// mutex is reported. Run under -race it audits the probes' memory safety.
func TestSyncNoOpStress(t *testing.T) {
	const goroutines = 6
	const rounds = 1500
	var racesMu sync.Mutex
	var races []pacer.Race
	d := pacer.New(pacer.Options{
		SamplingRate: 0.5, PeriodOps: 64, Seed: 11,
		OnRace: func(r pacer.Race) {
			racesMu.Lock()
			races = append(races, r)
			racesMu.Unlock()
		},
	})
	main := d.NewThread()
	shared := d.NewMutex()
	counter := d.NewVarID()
	flag := d.NewVolatileID()
	var issued atomic.Uint64
	stop := make(chan struct{})
	polled := make(chan uint64)
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				polled <- last
				return
			default:
			}
			s := d.Stats()
			if s.SyncOps < last {
				t.Errorf("SyncOps went backwards: %d after %d", s.SyncOps, last)
			}
			last = s.SyncOps
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		tid := d.Fork(main)
		issued.Add(1)
		wg.Add(1)
		go func(tid pacer.ThreadID) {
			defer wg.Done()
			own := d.NewMutex()
			private := d.NewVarID()
			var ops uint64
			for i := 0; i < rounds; i++ {
				shared.Lock(tid)
				d.Write(tid, counter, 1)
				shared.Unlock(tid)
				for j := 0; j < 3; j++ {
					own.Lock(tid)
					d.Read(tid, private, 2)
					d.Write(tid, private, 3)
					own.Unlock(tid)
				}
				if i%2 == 0 {
					d.VolWrite(tid, flag)
				} else {
					d.VolRead(tid, flag)
				}
				ops += 2 + 3*2 + 1
			}
			issued.Add(ops)
		}(tid)
	}
	wg.Wait()
	close(stop)
	<-polled
	s := d.Stats()
	if s.SyncOps != issued.Load() {
		t.Errorf("Stats.SyncOps = %d, issued %d", s.SyncOps, issued.Load())
	}
	if d.SyncDismissals() == 0 {
		t.Error("no sync operation was dismissed")
	}
	for _, r := range races {
		t.Errorf("race reported on a mutex-guarded variable: %v", r)
	}
}

// TestSyncNoOpFreshLock: in a detector that has released nothing, so the
// lock table was never allocated, an acquire of a lock no thread has
// released reads ⊥ve. Rule 4 makes it a no-op, and DismissSync says so;
// the embedded API then dismisses it lock-free.
func TestSyncNoOpFreshLock(t *testing.T) {
	d := pacer.New(pacer.Options{})
	t0 := d.NewThread()
	d.Fork(t0) // creates t0's clock and publishes its version
	m := d.NewLockID()
	e := pacer.Event{Kind: event.Acquire, Thread: t0, Target: uint32(m)}
	if !d.DismissSync(e) {
		t.Fatal("DismissSync rejected an acquire of a never-released lock")
	}
	before, st := d.SyncDismissals(), d.Stats()
	d.Acquire(t0, m)
	if d.SyncDismissals() != before+1 {
		t.Error("Acquire of a never-released lock took the locked path")
	}
	if s := d.Stats(); s.SyncOps != st.SyncOps+1 || s.FastJoins != st.FastJoins+1 {
		t.Errorf("SyncOps +%d, FastJoins +%d; want +1 and +1, as the locked path counts it",
			s.SyncOps-st.SyncOps, s.FastJoins-st.FastJoins)
	}
}
