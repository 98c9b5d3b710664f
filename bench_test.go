// Benchmarks covering every table and figure of the paper's evaluation,
// plus ablations of PACER's individual design choices. Each benchmark
// measures the real wall-clock cost of the configuration the experiment
// uses and reports the experiment's headline metric via b.ReportMetric;
// `pacerbench` renders the full tables.
package pacer_test

import (
	"testing"

	"pacer"

	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
	"pacer/internal/generic"
	"pacer/internal/harness"
	"pacer/internal/literace"
	"pacer/internal/sim"
	"pacer/internal/workload"
)

// benchTrial runs one simulated eclipse trial per iteration under the
// given configuration and reports simulated overhead.
func benchTrial(b *testing.B, kind harness.DetectorKind, rate float64, instr bool) {
	b.Helper()
	spec := workload.Eclipse()
	var lastOverhead float64
	var events uint64
	for i := 0; i < b.N; i++ {
		t, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: kind, Rate: rate,
			Seed: int64(i), InstrumentAccesses: instr,
		})
		if err != nil {
			b.Fatal(err)
		}
		lastOverhead = t.Result.Overhead()
		events = t.Result.Events
	}
	b.ReportMetric(lastOverhead*100, "sim-overhead-%")
	b.ReportMetric(float64(events), "events/trial")
}

// BenchmarkTable1SamplingController exercises the GC-driven sampling
// controller at r = 3% (Table 1's effective-vs-specified rates).
func BenchmarkTable1SamplingController(b *testing.B) {
	spec := workload.Eclipse()
	eff := 0.0
	for i := 0; i < b.N; i++ {
		t, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.Pacer, Rate: 0.03,
			Seed: int64(i), InstrumentAccesses: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		eff += t.EffectiveRate
	}
	b.ReportMetric(eff/float64(b.N)*100, "effective-rate-%")
}

// BenchmarkTable2FullTrackingTrial runs the fully sampled trials that
// characterize each benchmark's races (Table 2).
func BenchmarkTable2FullTrackingTrial(b *testing.B) {
	spec := workload.Eclipse()
	distinct := 0
	for i := 0; i < b.N; i++ {
		t, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.Pacer, Rate: 1.0,
			Seed: int64(i), InstrumentAccesses: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		distinct = t.Distinct()
	}
	b.ReportMetric(float64(distinct), "distinct-races")
}

// BenchmarkFig3DetectionRate runs the sampled trials behind the
// detection-rate curves (Figures 3-5) at r = 5%.
func BenchmarkFig3DetectionRate(b *testing.B) {
	spec := workload.Eclipse()
	dyn := 0
	for i := 0; i < b.N; i++ {
		t, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.Pacer, Rate: 0.05,
			Seed: int64(i), InstrumentAccesses: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		dyn += t.Dynamic()
	}
	b.ReportMetric(float64(dyn)/float64(b.N), "dynamic-races/trial")
}

// BenchmarkFig4DistinctDetection measures the same trials' distinct-race
// yield (Figure 4).
func BenchmarkFig4DistinctDetection(b *testing.B) {
	spec := workload.Eclipse()
	distinct := 0
	for i := 0; i < b.N; i++ {
		t, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.Pacer, Rate: 0.05,
			Seed: int64(i), InstrumentAccesses: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		distinct += t.Distinct()
	}
	b.ReportMetric(float64(distinct)/float64(b.N), "distinct-races/trial")
}

// BenchmarkFig5PerRaceTrial is the per-race variant (Figure 5): same
// trials on a second benchmark (xalan).
func BenchmarkFig5PerRaceTrial(b *testing.B) {
	spec := workload.Xalan()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.Pacer, Rate: 0.10,
			Seed: int64(i), InstrumentAccesses: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6LiteRace runs the online LiteRace comparison trials.
func BenchmarkFig6LiteRace(b *testing.B) {
	spec := workload.Eclipse()
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.LiteRace,
			Seed: int64(i), InstrumentAccesses: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 7's four configurations.
func BenchmarkFig7OverheadOMSync(b *testing.B) { benchTrial(b, harness.Pacer, 0, false) }
func BenchmarkFig7OverheadR0(b *testing.B)     { benchTrial(b, harness.Pacer, 0, true) }
func BenchmarkFig7OverheadR1(b *testing.B)     { benchTrial(b, harness.Pacer, 0.01, true) }
func BenchmarkFig7OverheadR3(b *testing.B)     { benchTrial(b, harness.Pacer, 0.03, true) }

// Figure 8's scaling sweep endpoints (plus FastTrack, the 100%-tracking
// comparator).
func BenchmarkFig8ScalingR25(b *testing.B)      { benchTrial(b, harness.Pacer, 0.25, true) }
func BenchmarkFig8ScalingR100(b *testing.B)     { benchTrial(b, harness.Pacer, 1.00, true) }
func BenchmarkFig8FastTrackFull(b *testing.B)   { benchTrial(b, harness.FastTrack, 0, true) }
func BenchmarkFig9ScalingZoomR5(b *testing.B)   { benchTrial(b, harness.Pacer, 0.05, true) }
func BenchmarkFig9ScalingZoomR10(b *testing.B)  { benchTrial(b, harness.Pacer, 0.10, true) }
func BenchmarkGenericBaselineFull(b *testing.B) { benchTrial(b, harness.Generic, 0, true) }

// BenchmarkFig10SpaceTimeline measures the memory-accounting run and
// reports the peak metadata footprint.
func BenchmarkFig10SpaceTimeline(b *testing.B) {
	spec := workload.Eclipse()
	peak := 0
	for i := 0; i < b.N; i++ {
		t, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.Pacer, Rate: 0.03,
			Seed: int64(i), InstrumentAccesses: true, MemTimeline: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range t.Result.MemSamples {
			if m.MetaWords > peak {
				peak = m.MetaWords
			}
		}
	}
	b.ReportMetric(float64(peak), "peak-meta-words")
}

// BenchmarkTable3OpCounts measures the r = 3% configuration and reports
// the fraction of non-sampling joins handled by the version fast path.
func BenchmarkTable3OpCounts(b *testing.B) {
	spec := workload.Eclipse()
	var fastFrac float64
	for i := 0; i < b.N; i++ {
		t, err := harness.RunTrial(harness.TrialConfig{
			Bench: spec, Kind: harness.Pacer, Rate: 0.03,
			Seed: int64(i), InstrumentAccesses: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		c := t.Result.Counters
		total := c.FastJoins[detector.NonSampling] + c.SlowJoins[detector.NonSampling]
		if total > 0 {
			fastFrac = float64(c.FastJoins[detector.NonSampling]) / float64(total)
		}
	}
	b.ReportMetric(fastFrac*100, "fast-join-%")
}

// --- Raw detector throughput over identical event streams -------------

// benchTrace is a shared pre-generated racy trace.
var benchTrace = event.Generate(event.GenConfig{
	Threads: 8, Vars: 64, Locks: 8, Volatiles: 4,
	Steps: 30_000, PGuarded: 0.7, PWrite: 0.35, Seed: 42,
})

// benchSampledTrace interleaves 3%-duty sampling windows.
var benchSampledTrace = event.Generate(event.GenConfig{
	Threads: 8, Vars: 64, Locks: 8, Volatiles: 4,
	Steps: 30_000, PGuarded: 0.7, PWrite: 0.35, PSample: 0.005, Seed: 42,
})

func replayBench(b *testing.B, mk func() detector.Detector, tr event.Trace) {
	b.Helper()
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		d := mk()
		detector.Replay(d, tr)
		events += len(tr)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkThroughputPacerSampled(b *testing.B) {
	replayBench(b, func() detector.Detector { return core.New(nil) }, benchSampledTrace)
}

func BenchmarkThroughputPacerNeverSampling(b *testing.B) {
	replayBench(b, func() detector.Detector { return core.New(nil) }, benchTrace)
}

func BenchmarkThroughputPacerAlwaysSampling(b *testing.B) {
	tr := append(event.Trace{{Kind: event.SampleBegin}}, benchTrace...)
	replayBench(b, func() detector.Detector { return core.New(nil) }, tr)
}

func BenchmarkThroughputFastTrack(b *testing.B) {
	replayBench(b, func() detector.Detector { return fasttrack.New(nil) }, benchTrace)
}

func BenchmarkThroughputGeneric(b *testing.B) {
	replayBench(b, func() detector.Detector { return generic.New(nil) }, benchTrace)
}

func BenchmarkThroughputLiteRace(b *testing.B) {
	replayBench(b, func() detector.Detector {
		return literace.New(nil, literace.DefaultOptions())
	}, benchTrace)
}

// --- Ablations of DESIGN.md's called-out design choices ----------------

func BenchmarkAblationVersionsOn(b *testing.B) {
	replayBench(b, func() detector.Detector { return core.New(nil) }, benchSampledTrace)
}

func BenchmarkAblationVersionsOff(b *testing.B) {
	replayBench(b, func() detector.Detector {
		return core.NewWithOptions(nil, shardbase.Config{}, core.Options{DisableVersions: true})
	}, benchSampledTrace)
}

func BenchmarkAblationSharingOff(b *testing.B) {
	replayBench(b, func() detector.Detector {
		return core.NewWithOptions(nil, shardbase.Config{}, core.Options{DisableSharing: true})
	}, benchSampledTrace)
}

func BenchmarkAblationDiscardOff(b *testing.B) {
	d := core.NewWithOptions(nil, shardbase.Config{}, core.Options{DisableDiscard: true})
	detector.Replay(d, benchSampledTrace)
	words := d.MetadataWords()
	replayBench(b, func() detector.Detector {
		return core.NewWithOptions(nil, shardbase.Config{}, core.Options{DisableDiscard: true})
	}, benchSampledTrace)
	b.ReportMetric(float64(words), "meta-words")
}

func BenchmarkAblationEpochFastPathOff(b *testing.B) {
	replayBench(b, func() detector.Detector {
		return fasttrack.NewWithOptions(nil, shardbase.Config{}, fasttrack.Options{DisableEpochFastPath: true})
	}, benchTrace)
}

// BenchmarkPublicAPI measures the embeddable detector's per-operation cost
// through the thread-safe facade.
func BenchmarkPublicAPI(b *testing.B) {
	d := pacer.New(pacer.Options{SamplingRate: 0.03, PeriodOps: 4096})
	t0 := d.NewThread()
	v := d.NewVarID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Read(t0, v, 1)
	}
}

// BenchmarkFrontendParallel measures aggregate facade throughput under
// GOMAXPROCS-parallel load, for the sampling PACER backend and the
// always-on FASTTRACK backend, each through the concurrent sharded
// front-end and through the single-mutex serialized one. Each goroutine
// gets its own registered thread and mostly touches its own variables,
// the fast-path-dominant pattern the concurrent front-end is built for.
// Run with -cpu 1,2,4,8 to sweep parallelism; the sharded/serialized
// ratio at each level is the front-end's speedup.
func BenchmarkFrontendParallel(b *testing.B) {
	for _, algo := range []string{"pacer", "fasttrack"} {
		for _, serialized := range []bool{false, true} {
			name := algo + "/sharded"
			if serialized {
				name = algo + "/serialized"
			}
			b.Run(name, func(b *testing.B) {
				d := pacer.New(pacer.Options{Algorithm: algo, SamplingRate: 0.01, PeriodOps: 4096, Serialized: serialized})
				main := d.NewThread()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					tid := d.Fork(main)
					v := d.NewVarID()
					i := 0
					for pb.Next() {
						if i&7 == 0 {
							d.Write(tid, v, 1)
						} else {
							d.Read(tid, v, 2)
						}
						i++
					}
				})
			})
		}
	}
}

// BenchmarkSimulatorOverhead measures the bare simulator (no detector).
func BenchmarkSimulatorOverhead(b *testing.B) {
	spec := workload.Eclipse()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(spec.Program(int64(i)), sim.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
