package pacer_test

import (
	"fmt"
	"sync"
	"testing"

	"pacer"
)

// The backend conformance suite drives the same happens-before scenarios
// through the public front-end for every mounted algorithm and demands
// identical verdicts. At sampling rate 1.0 PACER analyzes every access, so
// all exact detectors — the vector-clock baseline, FASTTRACK, LITERACE
// (whose per-site samplers open at 100%), and PACER itself — must agree
// on which distinct races exist.
//
// "o1samples" is excluded: it is precise but deliberately incomplete (a
// single read slot per variable cannot attribute a write racing with
// several concurrent reads to all of them), so the oracle suite holds it
// to the precision band rather than exact agreement.

// racePair is the paper's identity of a distinct race: the variable plus
// the unordered pair of access sites. Backends are compared on this
// identity rather than on thread/kind attribution, whose representation
// legitimately differs across algorithms.
type racePair struct {
	v    pacer.VarID
	a, b pacer.SiteID
}

func pairOf(r pacer.Race) racePair {
	a, b := r.FirstSite, r.SecondSite
	if a > b {
		a, b = b, a
	}
	return racePair{r.Var, a, b}
}

type confScenario struct {
	name string
	want int // distinct races every conforming backend must report
	run  func(d *pacer.Detector)
}

var confScenarios = []confScenario{
	{
		// A mutex hands the variable from one thread to the other: the
		// release/acquire edge orders every access.
		name: "MutexGuarded", want: 0,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			m := d.NewMutex()
			m.Lock(t0)
			d.Write(t0, x, 1)
			m.Unlock(t0)
			m.Lock(t1)
			d.Write(t1, x, 2)
			d.Read(t1, x, 3)
			m.Unlock(t1)
		},
	},
	{
		// The same handoff without the mutex: one write/write race.
		name: "MutexMissing", want: 1,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			d.Write(t0, x, 1)
			d.Write(t1, x, 2)
		},
	},
	{
		// Fork publishes the parent's history to the child; Join returns
		// the child's history to the parent. Fully ordered, no races.
		name: "ForkJoin", want: 0,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			x := d.NewVarID()
			d.Write(t0, x, 1)
			t1 := d.Fork(t0)
			d.Write(t1, x, 2)
			d.Join(t0, t1)
			d.Read(t0, x, 3)
		},
	},
	{
		// A parent write after the fork is concurrent with the child.
		name: "ForkConcurrent", want: 1,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			d.Write(t0, x, 1)
			d.Read(t1, x, 2)
		},
	},
	{
		// Writer lock vs reader lock: Unlock happens before RLock, and
		// RUnlock happens before the next Lock.
		name: "RWMutexGuarded", want: 0,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			rw := d.NewRWMutex()
			rw.Lock(t0)
			d.Write(t0, x, 1)
			rw.Unlock(t0)
			rw.RLock(t1)
			d.Read(t1, x, 2)
			rw.RUnlock(t1)
			rw.Lock(t0)
			d.Write(t0, x, 3)
			rw.Unlock(t0)
		},
	},
	{
		// The reader skips RLock: its read races with the guarded write.
		name: "RWMutexMissing", want: 1,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			rw := d.NewRWMutex()
			rw.Lock(t0)
			d.Write(t0, x, 1)
			rw.Unlock(t0)
			d.Read(t1, x, 2)
		},
	},
	{
		// Done publishes each worker's writes; Wait receives them all.
		name: "WaitGroup", want: 0,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1, t2 := d.Fork(t0), d.Fork(t0)
			x1, x2 := d.NewVarID(), d.NewVarID()
			wg := d.NewWaitGroup()
			wg.Add(2)
			d.Write(t1, x1, 1)
			wg.Done(t1)
			d.Write(t2, x2, 2)
			wg.Done(t2)
			wg.Wait(t0)
			d.Read(t0, x1, 3)
			d.Read(t0, x2, 4)
		},
	},
	{
		// The waiter reads before Wait: unsynchronized with the worker.
		name: "WaitGroupMissing", want: 1,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			wg := d.NewWaitGroup()
			wg.Add(1)
			d.Write(t1, x, 1)
			wg.Done(t1)
			d.Read(t0, x, 2) // no Wait first
			wg.Wait(t0)
		},
	},
	{
		// Volatile publication: the volatile write/read pair carries the
		// plain write to the reader.
		name: "VolatilePublish", want: 0,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			vx := d.NewVolatileID()
			d.Write(t0, x, 1)
			d.VolWrite(t0, vx)
			d.VolRead(t1, vx)
			d.Read(t1, x, 2)
		},
	},
	{
		// The same publication without the volatile: a write/read race.
		name: "VolatileMissing", want: 1,
		run: func(d *pacer.Detector) {
			t0 := d.NewThread()
			t1 := d.Fork(t0)
			x := d.NewVarID()
			d.Write(t0, x, 1)
			d.Read(t1, x, 2)
		},
	},
}

// conformanceAlgorithms is every registered backend that must agree
// exactly, i.e. all of them except the incomplete-by-design o1samples
// backend (which the oracle suite sweeps, precision-only), sorted.
func conformanceAlgorithms() []string {
	var algos []string
	for _, a := range pacer.Algorithms() {
		if a != "o1samples" {
			algos = append(algos, a)
		}
	}
	return algos
}

// runConformance mounts algo behind the front-end at rate 1.0 and returns
// the distinct races the scenario produces.
func runConformance(algo string, sc confScenario) map[racePair]bool {
	var mu sync.Mutex
	got := make(map[racePair]bool)
	d := pacer.New(pacer.Options{
		Algorithm:    algo,
		SamplingRate: 1.0,
		Seed:         5,
		OnRace: func(r pacer.Race) {
			mu.Lock()
			got[pairOf(r)] = true
			mu.Unlock()
		},
	})
	sc.run(d)
	return got
}

// TestConformanceBackendMatrix asserts every mounted precise backend
// reports exactly the expected distinct races on each happens-before
// scenario, and that all backends agree with the exhaustive vector-clock
// baseline ("generic") race for race.
func TestConformanceBackendMatrix(t *testing.T) {
	algos := conformanceAlgorithms()
	if got, want := fmt.Sprint(algos), "[fasttrack generic literace pacer]"; got != want {
		t.Fatalf("exact backends are %v, want %v", got, want)
	}
	for _, sc := range confScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseline := runConformance("generic", sc)
			if len(baseline) != sc.want {
				t.Fatalf("generic baseline found %d distinct races %v, scenario expects %d",
					len(baseline), baseline, sc.want)
			}
			for _, algo := range algos {
				got := runConformance(algo, sc)
				if len(got) != len(baseline) {
					t.Errorf("%s: %d distinct races %v, baseline has %d %v",
						algo, len(got), got, len(baseline), baseline)
					continue
				}
				for k := range baseline {
					if !got[k] {
						t.Errorf("%s: missing race %+v (found %v)", algo, k, got)
					}
				}
			}
		})
	}
}

// TestConformanceAlwaysSampleDegradation pins the graceful-degradation
// contract: a backend with no sampler (fasttrack) mounted at any sampling
// rate still analyzes everything — Options.SamplingRate is a no-op for it
// and Sampling() reports true throughout.
func TestConformanceAlwaysSampleDegradation(t *testing.T) {
	var races int
	d := pacer.New(pacer.Options{
		Algorithm:    "fasttrack",
		SamplingRate: 0.0001, // would almost surely skip everything under PACER
		Seed:         9,
		OnRace:       func(pacer.Race) { races++ },
	})
	if !d.Sampling() {
		t.Fatal("non-sampling backend must report Sampling() == true")
	}
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	x := d.NewVarID()
	d.Write(t0, x, 1)
	d.Write(t1, x, 2)
	if races != 1 {
		t.Fatalf("always-sample degradation lost the race: got %d reports, want 1", races)
	}
	if !d.Sampling() {
		t.Fatal("Sampling() flipped false for a non-sampling backend")
	}
}
