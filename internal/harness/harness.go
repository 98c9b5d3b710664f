// Package harness runs the paper's experiments (Section 5) on the
// simulator substrate and renders each table and figure. Every experiment
// has a Scale knob multiplying trial counts so that tests and quick runs
// stay cheap while `pacerbench -scale 1` reproduces the full protocol.
package harness

import (
	"fmt"
	"io"

	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/fasttrack"
	"pacer/internal/generic"
	"pacer/internal/literace"
	"pacer/internal/sim"
	"pacer/internal/workload"
)

// DetectorKind selects the analysis under test.
type DetectorKind int

const (
	// NoDetector runs the program uninstrumented (the Base configuration).
	NoDetector DetectorKind = iota
	// Pacer is the paper's contribution.
	Pacer
	// FastTrack is the full-tracking baseline.
	FastTrack
	// Generic is the O(n) vector clock baseline.
	Generic
	// LiteRace is the online LiteRace baseline.
	LiteRace
)

// String names the detector kind.
func (k DetectorKind) String() string {
	switch k {
	case NoDetector:
		return "base"
	case Pacer:
		return "pacer"
	case FastTrack:
		return "fasttrack"
	case Generic:
		return "generic"
	case LiteRace:
		return "literace"
	default:
		return "unknown"
	}
}

// TrialConfig describes one simulation trial of a benchmark.
type TrialConfig struct {
	Bench *workload.Spec
	Kind  DetectorKind
	// Rate is the specified sampling rate for Pacer (fraction).
	Rate float64
	Seed int64
	// InstrumentAccesses false gives the "OM + sync ops" configuration.
	InstrumentAccesses bool
	// LiteRaceBurst overrides LiteRace's burst length. The default of 5 is
	// the paper's burst of 1,000 rescaled to the models' per-(method,
	// thread) execution counts (thousands rather than millions), landing
	// the effective access sampling rate near the paper's ~1-3%.
	LiteRaceBurst int
	// MemTimeline records Figure 10 samples.
	MemTimeline bool
	// Nursery overrides the GC nursery size (default 1024 words).
	Nursery int
	// PacerOptions tunes the PACER algorithm (ablations).
	PacerOptions core.Options
}

// Trial is the outcome of one simulation trial.
type Trial struct {
	// PerRace maps race id → dynamic reports in this trial.
	PerRace map[int]int
	// EffectiveRate is the observed sampling rate (sync-op weighted).
	EffectiveRate float64
	// LiteRaceRate is LiteRace's effective access sampling rate.
	LiteRaceRate float64
	// Result is the raw simulation result.
	Result *sim.Result
}

// Dynamic returns the total dynamic race reports.
func (t *Trial) Dynamic() int {
	n := 0
	for _, c := range t.PerRace {
		n += c
	}
	return n
}

// Distinct returns the number of distinct races reported.
func (t *Trial) Distinct() int { return len(t.PerRace) }

// RunTrial executes one trial.
func RunTrial(cfg TrialConfig) (*Trial, error) {
	col := detector.NewCollector()
	var d detector.Detector
	var lr *literace.Detector
	switch cfg.Kind {
	case NoDetector:
	case Pacer:
		d = core.NewWithOptions(col.Report, shardbase.Config{}, cfg.PacerOptions)
	case FastTrack:
		d = fasttrack.New(col.Report)
	case Generic:
		d = generic.New(col.Report)
	case LiteRace:
		burst := cfg.LiteRaceBurst
		if burst == 0 {
			burst = 5
		}
		lr = literace.New(col.Report, literace.Options{
			BurstLength: burst, MinRate: 0.001, Backoff: 10, Seed: cfg.Seed + 1,
		})
		d = lr
	}
	nursery := cfg.Nursery
	if nursery == 0 {
		nursery = cfg.Bench.NurseryWords
	}
	if nursery == 0 {
		nursery = 1024
	}
	rate := cfg.Rate
	if cfg.Kind == FastTrack || cfg.Kind == Generic || cfg.Kind == LiteRace {
		rate = 0 // these detectors track everything; no sampling periods
	}
	res, err := sim.Run(cfg.Bench.Program(cfg.Seed), sim.Config{
		Seed:               cfg.Seed,
		Detector:           d,
		InstrumentAccesses: cfg.InstrumentAccesses,
		SampleTarget:       rate,
		NurseryWords:       nursery,
		MemTimeline:        cfg.MemTimeline,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s %s r=%g seed=%d: %w",
			cfg.Bench.Name, cfg.Kind, cfg.Rate, cfg.Seed, err)
	}
	t := &Trial{PerRace: make(map[int]int), EffectiveRate: res.EffectiveRate, Result: res}
	for _, r := range col.Dynamic {
		if id, ok := cfg.Bench.RaceOf(r.Var); ok {
			t.PerRace[id]++
		}
	}
	if lr != nil {
		t.LiteRaceRate = lr.EffectiveRate()
	}
	return t, nil
}

// Options configure an experiment run.
type Options struct {
	// Scale multiplies trial counts (1.0 = the paper's protocol; tests use
	// much smaller values). Trial counts never drop below 4.
	Scale float64
	// SeedBase offsets all trial seeds.
	SeedBase int64
	// Benches restricts the benchmark set (nil = all four).
	Benches []*workload.Spec
	// Nursery overrides the GC nursery size for every trial (words);
	// small workloads need a small nursery for sampling periods to occur.
	Nursery int
}

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Benches == nil {
		o.Benches = workload.All()
	}
}

func (o *Options) trials(n int) int {
	t := int(float64(n)*o.Scale + 0.5)
	return max(t, 4)
}

// rule prints a horizontal separator sized to the table.
func rule(w io.Writer, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
