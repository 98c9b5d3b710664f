package core_test

import (
	"testing"

	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
	"pacer/internal/vclock"
)

func mk(r detector.Reporter) detector.Detector { return core.New(r) }

func mkOpts(opts core.Options) func(detector.Reporter) detector.Detector {
	return func(r detector.Reporter) detector.Detector {
		return core.NewWithOptions(r, shardbase.Config{}, opts)
	}
}

// sampledAlways prefixes a trace with sbegin so PACER runs at r = 100%.
func sampledAlways(tr event.Trace) event.Trace {
	out := make(event.Trace, 0, len(tr)+1)
	out = append(out, event.Event{Kind: event.SampleBegin})
	return append(out, tr...)
}

func TestFullySampledScenarios(t *testing.T) {
	cases := []struct {
		name  string
		trace event.Trace
		races int
		kind  detector.RaceKind
	}{
		{"write-write", dtest.NewTB().SBegin().Write(0, 1).Write(1, 1).Trace, 1, detector.WriteWrite},
		{"write-read", dtest.NewTB().SBegin().Write(0, 1).Read(1, 1).Trace, 1, detector.WriteRead},
		{"read-write", dtest.NewTB().SBegin().Read(0, 1).Write(1, 1).Trace, 1, detector.ReadWrite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dtest.Run(tc.trace, mk)
			if c.DynamicCount() != tc.races {
				t.Fatalf("races = %d, want %d", c.DynamicCount(), tc.races)
			}
			if c.Dynamic[0].Kind != tc.kind {
				t.Fatalf("kind = %v, want %v", c.Dynamic[0].Kind, tc.kind)
			}
		})
	}
}

func TestFullySampledSynchronizationPreventsRaces(t *testing.T) {
	b := dtest.NewTB().SBegin().
		Acq(0, 9).Write(0, 1).Rel(0, 9).
		Acq(1, 9).Write(1, 1).Rel(1, 9).
		Write(2, 2).VolWrite(2, 3).
		VolRead(3, 3).Read(3, 2).
		Fork(0, 4).Write(4, 5).Join(0, 4).Read(0, 5)
	if c := dtest.Run(b.Trace, mk); c.DynamicCount() != 0 {
		t.Fatalf("false positives: %v", c.Dynamic)
	}
}

// Figure 1, variable y: a write in the sampling period races with a read
// after the period ends. PACER must report it — that is the guarantee.
func TestFigure1SampledWriteLaterRead(t *testing.T) {
	b := dtest.NewTB().
		SBegin().Write(2, 10).SEnd(). // sampled write W_y on t2
		Read(3, 10)                   // racy read on t3, outside sampling
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 1 {
		t.Fatalf("races = %d, want 1", c.DynamicCount())
	}
	r := c.Dynamic[0]
	if r.Kind != detector.WriteRead || r.FirstThread != 2 || r.SecondThread != 3 {
		t.Errorf("unexpected race %v", r)
	}
}

// Figure 1, variable x: a sampled read is followed (with a happens-before
// edge) by an unsampled write; PACER discards the read's metadata, and the
// later racing write goes unreported — the unsampled write at t1 was the
// last access to race, so this race is charged to t1's (unsampled) access.
func TestFigure1DiscardedReadNotReported(t *testing.T) {
	b := dtest.NewTB().
		SBegin().Read(2, 20).Rel(2, 5).SEnd(). // sampled read R_x, then release
		Acq(1, 5).Write(1, 20).                // ordered write W_x at t1 (unsampled)
		Write(3, 20)                           // races with t1's write — unsampled
	c := dtest.Run(b.Trace, mk)
	if c.DynamicCount() != 0 {
		t.Fatalf("unexpected reports: %v", c.Dynamic)
	}
}

func TestNeverSamplingReportsNothingAndTracksNothing(t *testing.T) {
	d := core.New(func(r detector.Race) { t.Errorf("unexpected race %v", r) })
	tr := event.Generate(event.Racy(6, 5000, 3))
	detector.Replay(d, tr)
	if d.VarsTracked() != 0 {
		t.Fatalf("r=0 left %d variables tracked", d.VarsTracked())
	}
	s := d.Stats()
	if s.ReadSlow[detector.NonSampling] != 0 || s.WriteSlow[detector.NonSampling] != 0 {
		t.Error("r=0 executed access slow paths")
	}
	if s.ReadFast[detector.NonSampling] == 0 {
		t.Error("fast path never taken")
	}
	if s.Increments[detector.Sampling] != 0 {
		t.Error("r=0 performed clock increments")
	}
	if s.DeepCopies[detector.NonSampling] != 0 {
		t.Error("r=0 performed deep copies")
	}
}

// Theorem 1 analogue: at a 100% sampling rate PACER performs exactly the
// FASTTRACK analysis — identical race reports on arbitrary traces.
func TestFullySampledEqualsFastTrack(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		tr := dtest.UniqueSites(event.Generate(event.GenConfig{
			Threads: 7, Vars: 10, Locks: 3, Volatiles: 2,
			Steps: 3000, PGuarded: 0.5, PWrite: 0.4, Seed: seed,
		}))
		full := sampledAlways(tr)
		p := dtest.Run(full, mk)
		f := dtest.Run(full, func(r detector.Reporter) detector.Detector { return fasttrack.New(r) })
		kp, kf := dtest.KeySet(p.Dynamic), dtest.KeySet(f.Dynamic)
		if len(kp) != len(kf) {
			t.Fatalf("seed %d: pacer %d distinct reports, fasttrack %d", seed, len(kp), len(kf))
		}
		for k, n := range kf {
			if kp[k] != n {
				t.Fatalf("seed %d: report %v: pacer %d, fasttrack %d", seed, k, kp[k], n)
			}
		}
	}
}

// Theorem 2 analogue (the paper's central claim): every sampled shortest
// race — a FASTTRACK report whose first access falls inside a sampling
// period — is reported by PACER, attributing the same first access.
// Conversely (precision), every PACER report is a true race whose first
// access is sampled; PACER may legitimately report additional true races
// that are not shortest (e.g. when a sampled write survives a same-epoch
// unsampled rewrite, Table 4 Rule 5), so report sets are compared by
// flagged first access, not as exact multisets.
func TestStatisticalSoundness(t *testing.T) {
	mkFT := func(r detector.Reporter) detector.Detector { return fasttrack.New(r) }
	for seed := int64(0); seed < 40; seed++ {
		tr := dtest.UniqueSites(event.Generate(event.GenConfig{
			Threads: 6, Vars: 8, Locks: 3, Volatiles: 2,
			Steps: 3000, PGuarded: 0.45, PWrite: 0.4,
			PSample: 0.03, Seed: seed,
		}))
		if issue := dtest.SoundnessIssue(tr, mk, mkFT); issue != "" {
			t.Fatalf("seed %d: %s", seed, issue)
		}
	}
}

// Lemma 7 in action: disabling the version-epoch optimization must not
// change any report — fast joins only ever skip no-op joins.
func TestVersionOptimizationSemanticsPreserving(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := dtest.UniqueSites(event.Generate(event.GenConfig{
			Threads: 6, Vars: 8, Locks: 3, Volatiles: 2,
			Steps: 2500, PGuarded: 0.45, PWrite: 0.4, PSample: 0.05, Seed: seed,
		}))
		a := dtest.Run(tr, mk)
		b := dtest.Run(tr, mkOpts(core.Options{DisableVersions: true}))
		ka, kb := dtest.KeySet(a.Dynamic), dtest.KeySet(b.Dynamic)
		if len(ka) != len(kb) {
			t.Fatalf("seed %d: %d vs %d reports", seed, len(ka), len(kb))
		}
		for k, n := range ka {
			if kb[k] != n {
				t.Fatalf("seed %d: report %v differs: %d vs %d", seed, k, n, kb[k])
			}
		}
	}
}

// Copy-on-write sharing is likewise semantics-preserving.
func TestSharingSemanticsPreserving(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := dtest.UniqueSites(event.Generate(event.GenConfig{
			Threads: 6, Vars: 8, Locks: 3, Volatiles: 2,
			Steps: 2500, PGuarded: 0.45, PWrite: 0.4, PSample: 0.05, Seed: seed,
		}))
		a := dtest.Run(tr, mk)
		b := dtest.Run(tr, mkOpts(core.Options{DisableSharing: true}))
		ka, kb := dtest.KeySet(a.Dynamic), dtest.KeySet(b.Dynamic)
		if len(ka) != len(kb) {
			t.Fatalf("seed %d: %d vs %d reports", seed, len(ka), len(kb))
		}
		for k, n := range ka {
			if kb[k] != n {
				t.Fatalf("seed %d: report %v differs: %d vs %d", seed, k, n, kb[k])
			}
		}
	}
}

// Theorem 3 analogue (completeness): race-free programs produce no reports
// at any sampling rate.
func TestNoFalsePositivesUnderSampling(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		cfg := event.Synchronized(6, 4000, seed)
		cfg.PSample = 0.04
		tr := event.Generate(cfg)
		if c := dtest.Run(tr, mk); c.DynamicCount() != 0 {
			t.Fatalf("seed %d: false positive %v", seed, c.Dynamic[0])
		}
	}
}

// Disabling discard may add true (non-shortest) races but never loses one,
// and remains precise on race-free traces.
func TestDisableDiscardSupersetAndPrecise(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr := dtest.UniqueSites(event.Generate(event.GenConfig{
			Threads: 6, Vars: 8, Locks: 3, Volatiles: 2,
			Steps: 2500, PGuarded: 0.45, PWrite: 0.4, PSample: 0.05, Seed: seed,
		}))
		oracle := dtest.NewHBOracle(tr)
		normal := oracle.FirstAccessClasses(dtest.Run(tr, mk).Dynamic)
		keptRun := dtest.Run(tr, mkOpts(core.Options{DisableDiscard: true}))
		kept := oracle.FirstAccessClasses(keptRun.Dynamic)
		for k := range normal {
			if !kept[k] {
				t.Fatalf("seed %d: discarding=off lost flagged first access on x%d by t%d", seed, k.Var, k.Thread)
			}
		}
		for _, r := range keptRun.Dynamic {
			if !oracle.TrueRace(r) {
				t.Fatalf("seed %d: DisableDiscard reported a false race %v", seed, r)
			}
		}
	}
	for seed := int64(100); seed < 105; seed++ {
		cfg := event.Synchronized(6, 3000, seed)
		cfg.PSample = 0.05
		tr := event.Generate(cfg)
		c := dtest.Run(tr, mkOpts(core.Options{DisableDiscard: true}))
		if c.DynamicCount() != 0 {
			t.Fatalf("seed %d: DisableDiscard false positive %v", seed, c.Dynamic[0])
		}
	}
}

func TestMetadataDiscardedInNonSamplingPeriods(t *testing.T) {
	d := core.New(nil)
	b := dtest.NewTB().SBegin()
	for x := event.Var(0); x < 30; x++ {
		b.Write(0, x).Read(1, x)
	}
	b.SEnd()
	detector.Replay(d, b.Trace)
	if d.VarsTracked() != 30 {
		t.Fatalf("tracked %d vars after sampling, want 30", d.VarsTracked())
	}
	// Unsampled writes discard everything.
	b2 := dtest.NewTB()
	for x := event.Var(0); x < 30; x++ {
		b2.Write(2, x)
	}
	detector.Replay(d, b2.Trace)
	if d.VarsTracked() != 0 {
		t.Fatalf("tracked %d vars after unsampled writes, want 0", d.VarsTracked())
	}
}

func TestSamplingToggle(t *testing.T) {
	d := core.New(nil)
	if d.Sampling() {
		t.Fatal("detector born sampling")
	}
	d.SampleBegin()
	if !d.Sampling() {
		t.Fatal("SampleBegin did not enter sampling")
	}
	d.SampleBegin() // idempotent
	if !d.Sampling() {
		t.Fatal("double SampleBegin broke state")
	}
	d.SampleEnd()
	if d.Sampling() {
		t.Fatal("SampleEnd did not leave sampling")
	}
}

// Operation counters: in non-sampling periods with shared clocks, sync ops
// avoid O(n) work (Table 3's headline result).
func TestNonSamplingSyncOpsAreFast(t *testing.T) {
	d := core.New(nil)
	b := dtest.NewTB()
	// Repeated lock communication between two threads, never sampling.
	for i := 0; i < 100; i++ {
		b.Acq(0, 1).Rel(0, 1).Acq(1, 1).Rel(1, 1)
	}
	detector.Replay(d, b.Trace)
	s := d.Stats()
	if s.ShallowCopies[detector.NonSampling] != 200 {
		t.Errorf("shallow copies = %d, want 200", s.ShallowCopies[detector.NonSampling])
	}
	if s.DeepCopies[detector.NonSampling] != 0 {
		t.Errorf("deep copies = %d, want 0", s.DeepCopies[detector.NonSampling])
	}
	// After the first few joins establish versions, the rest must be fast.
	if s.SlowJoins[detector.NonSampling] > 4 {
		t.Errorf("slow joins = %d, want ≤ 4 (versions should absorb the rest)", s.SlowJoins[detector.NonSampling])
	}
	if s.FastJoins[detector.NonSampling] < 190 {
		t.Errorf("fast joins = %d, want ≥ 190", s.FastJoins[detector.NonSampling])
	}
}

// Space: sharing makes non-sampling sync metadata O(1) per lock rather
// than O(n).
func TestSharingReducesMetadataFootprint(t *testing.T) {
	build := func(opts core.Options) int {
		d := core.NewWithOptions(nil, shardbase.Config{}, opts)
		b := dtest.NewTB()
		// Many threads, many locks, all communicating outside sampling.
		for th := vclock.Thread(0); th < 20; th++ {
			for m := event.Lock(0); m < 20; m++ {
				b.Acq(th, m).Rel(th, m)
			}
		}
		detector.Replay(d, b.Trace)
		return d.MetadataWords()
	}
	shared := build(core.Options{})
	unshared := build(core.Options{DisableSharing: true})
	if shared >= unshared {
		t.Errorf("sharing did not reduce footprint: shared=%d unshared=%d", shared, unshared)
	}
}

func TestName(t *testing.T) {
	if core.New(nil).Name() != "pacer" {
		t.Error("wrong name")
	}
}
