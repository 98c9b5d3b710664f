// Package backends mounts every race-detector implementation in the
// repository behind one constructor keyed by algorithm name, so the public
// front-end, the replay tooling, and the benchmarks all build detectors
// through a single registry instead of hard-wiring one package each.
//
// The registry is extensible: Register adds a backend (e.g. from a test or
// an out-of-tree analysis) and the public pacer.Options.Algorithm knob
// reaches anything registered here.
package backends

import (
	"fmt"
	"sort"
	"sync"

	"pacer/internal/core"
	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/djit"
	"pacer/internal/fasttrack"
	"pacer/internal/generic"
	"pacer/internal/goldilocks"
	"pacer/internal/literace"
	"pacer/internal/lockset"
)

// Config carries the cross-backend construction knobs. Backends ignore the
// fields they have no use for.
type Config struct {
	// Seed drives any randomized behavior (LITERACE's burst resets).
	// 0 means the backend's own default.
	Seed int64
	// Config configures the metadata store of every sharded backend
	// (pacer, fasttrack, o1samples, djit, and literace through its
	// FASTTRACK core); the serialized backends ignore it.
	shardbase.Config
}

// Factory constructs one backend.
type Factory func(report detector.Reporter, cfg Config) detector.Detector

var (
	mu       sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a backend under name. It panics on a duplicate name, which
// would silently shadow an existing algorithm.
func Register(name string, f Factory) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backends: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New constructs the backend registered under name.
func New(name string, report detector.Reporter, cfg Config) (detector.Detector, error) {
	mu.RLock()
	f, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backends: unknown algorithm %q (known: %v)", name, Names())
	}
	return f(report, cfg), nil
}

// Known reports whether name is a registered algorithm.
func Known(name string) bool {
	mu.RLock()
	defer mu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("pacer", func(report detector.Reporter, cfg Config) detector.Detector {
		return core.NewWithOptions(report, cfg.Config, core.Options{})
	})
	Register("fasttrack", func(report detector.Reporter, cfg Config) detector.Detector {
		return fasttrack.NewWithOptions(report, cfg.Config, fasttrack.Options{})
	})
	Register("generic", func(report detector.Reporter, _ Config) detector.Detector {
		return generic.New(report)
	})
	djitFactory := func(report detector.Reporter, cfg Config) detector.Detector {
		return djit.NewWithConfig(report, cfg.Config)
	}
	Register("djit", djitFactory)
	Register("djit+", djitFactory) // the detector's own Name()
	Register("literace", func(report detector.Reporter, cfg Config) detector.Detector {
		o := literace.DefaultOptions()
		if cfg.Seed != 0 {
			o.Seed = cfg.Seed
		}
		return literace.NewWithConfig(report, cfg.Config, o)
	})
	Register("o1samples", func(report detector.Reporter, cfg Config) detector.Detector {
		return fasttrack.NewO1Samples(report, cfg.Config)
	})
	Register("goldilocks", func(report detector.Reporter, _ Config) detector.Detector {
		return goldilocks.New(report)
	})
	Register("lockset", func(report detector.Reporter, _ Config) detector.Detector {
		return lockset.New(report)
	})
}
