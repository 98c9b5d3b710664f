// Package backends mounts every race-detector implementation in the
// repository behind one constructor keyed by algorithm name, so the public
// front-end, the replay tooling, and the benchmarks all build detectors
// through a single registry instead of hard-wiring one package each.
//
// The registry is a fixed table: every name in it is a precise detector
// that the oracle conformance suite and `racereplay verify` check.
package backends

import (
	"fmt"
	"sort"

	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
	"pacer/internal/generic"
	"pacer/internal/literace"
)

// Config carries the cross-backend construction knobs. Backends ignore the
// fields they have no use for.
type Config struct {
	// Seed drives any randomized behavior (LITERACE's burst resets).
	// 0 means the backend's own default.
	Seed int64
	// Config configures the metadata store of every sharded backend
	// (pacer, fasttrack, o1samples, and literace through its FASTTRACK
	// core); the serialized generic backend ignores it.
	shardbase.Config
}

// Factory constructs one backend.
type Factory func(report detector.Reporter, cfg Config) detector.Detector

var registry = map[string]Factory{
	"pacer": func(report detector.Reporter, cfg Config) detector.Detector {
		return core.NewWithOptions(report, cfg.Config, core.Options{})
	},
	"fasttrack": func(report detector.Reporter, cfg Config) detector.Detector {
		return fasttrack.NewWithOptions(report, cfg.Config, fasttrack.Options{})
	},
	"generic": func(report detector.Reporter, _ Config) detector.Detector {
		return generic.New(report)
	},
	"literace": func(report detector.Reporter, cfg Config) detector.Detector {
		o := literace.DefaultOptions()
		if cfg.Seed != 0 {
			o.Seed = cfg.Seed
		}
		return literace.NewWithConfig(report, cfg.Config, o)
	},
	"o1samples": func(report detector.Reporter, cfg Config) detector.Detector {
		return fasttrack.NewO1Samples(report, cfg.Config)
	},
}

// New constructs the backend registered under name.
func New(name string, report detector.Reporter, cfg Config) (detector.Detector, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("backends: unknown algorithm %q (known: %v)", name, Names())
	}
	return f(report, cfg), nil
}

// Known reports whether name is a registered algorithm.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ExactAtRateOne reports whether the backend algo, replaying tr at
// sampling rate 1.0, must be exact (report on every variable the
// happens-before oracle finds racy) rather than only precise. It is the
// one rule the conformance suite and `racereplay verify` both apply.
// Exactness is demanded only where the backend analyzes every access:
//   - never when tr ends a sampling period (a SampleEnd event), which
//     hides races from the detector;
//   - of literace only while every (method, thread) sampler key sees
//     fewer accesses than its initial 100% burst
//     (literace.DefaultOptions' BurstLength);
//   - never of o1samples, whose single read slot per variable cannot
//     attribute a write racing with several concurrent reads to all of
//     them.
func ExactAtRateOne(algo string, tr event.Trace) bool {
	burst := literace.DefaultOptions().BurstLength
	counts := map[[2]uint32]int{}
	for _, e := range tr {
		switch {
		case e.Kind == event.SampleEnd:
			return false
		case algo == "literace" && (e.Kind == event.Read || e.Kind == event.Write):
			k := [2]uint32{e.Method, uint32(e.Thread)}
			if counts[k]++; counts[k] >= burst {
				return false
			}
		}
	}
	return algo != "o1samples"
}
