package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"pacer"
)

// Frontend measures the real (wall-clock, this machine) ingestion
// throughput of the public pacer.Detector facade under parallel load:
// goroutines issuing Read/Write through the API with occasional
// instrumented lock operations, at a deployment-style sampling rate.
//
// Two comparisons come out of one run:
//
//   - Scaling: each goroutine count is run twice with the default PACER
//     backend — once in Options.Serialized mode (the classic single-mutex
//     front-end, the baseline) and once with the concurrent sharded
//     front-end — and the speedup column is the headline: with the
//     lock-free non-sampling fast path, aggregate throughput should scale
//     with cores instead of collapsing on the global mutex.
//   - Backends: every algorithm in Config.Algorithms is mounted behind
//     the *identical* concurrent front-end (Options.Algorithm) and
//     measured on the same workload, turning the paper's simulated-cost
//     comparison (PACER vs FASTTRACK et al.) into real wall-clock numbers
//     through the code path production uses. Backends without sampling
//     analyze everything, so the gap to PACER at a deployment rate is the
//     proportionality argument measured live.
//
// Unlike the simulator experiments this one measures this process on this
// hardware; numbers vary across machines, the shape (speedup > 1, growing
// with goroutines; PACER far ahead of always-on backends) should not.

// FrontendConfig configures the front-end scaling measurement.
type FrontendConfig struct {
	// Goroutines lists the parallelism levels to measure (default 1,2,4,8).
	Goroutines []int
	// Rate is the sampling rate (default 0.01, the paper's deployment
	// recommendation).
	Rate float64
	// Ops is the per-goroutine operation count (default 200_000).
	Ops int
	// SharedEvery makes one in N accesses touch a variable shared by all
	// goroutines (default 16).
	SharedEvery int
	// Algorithms lists the backends compared through the identical
	// concurrent front-end (default pacer, fasttrack).
	Algorithms []string
}

func (c *FrontendConfig) fill() {
	if c.Goroutines == nil {
		c.Goroutines = []int{1, 2, 4, 8}
	}
	if c.Rate == 0 {
		c.Rate = 0.01
	}
	if c.Ops <= 0 {
		c.Ops = 200_000
	}
	if c.SharedEvery <= 0 {
		c.SharedEvery = 16
	}
	if c.Algorithms == nil {
		c.Algorithms = []string{"pacer", "fasttrack"}
	}
}

// Measure is one configuration's full measurement: throughput plus the
// allocation and metadata accounting that make configurations comparable
// apples-to-apples.
type Measure struct {
	// OpsPerSec is aggregate operations per second.
	OpsPerSec float64
	// AllocsPerOp is heap allocations per observed operation during the
	// worker phase (runtime Mallocs delta / total ops).
	AllocsPerOp float64
	// MetaWords is the detector's live metadata at the end of the run, in
	// 8-byte words.
	MetaWords int
	// Stats is the detector's final counter snapshot.
	Stats pacer.Stats
}

// FrontendRow is one parallelism level's measurement.
type FrontendRow struct {
	Goroutines int
	// Base and Conc are the serialized and concurrent front-end measures.
	Base, Conc Measure
	// Speedup is Conc.OpsPerSec / Base.OpsPerSec.
	Speedup float64
}

// BackendRow is one parallelism level's backend comparison, indexed like
// Algorithms.
type BackendRow struct {
	Goroutines int
	Measures   []Measure
}

// FrontendResult holds the front-end scaling and backend tables.
type FrontendResult struct {
	Rate       float64
	Ops        int
	Rows       []FrontendRow
	Algorithms []string
	Backends   []BackendRow
}

// frontendRun drives one configuration and measures throughput, heap
// allocations per operation, and final metadata footprint. Identifier
// allocation and goroutine setup happen before the measured window, so the
// Mallocs delta charges (almost) only the per-operation work; the handful
// of scheduler/stack allocations from starting goroutines is identical
// across configurations and ~zero per op at these operation counts.
func frontendRun(cfg FrontendConfig, goroutines int, algorithm string, serialized bool) Measure {
	d := pacer.New(pacer.Options{
		Algorithm:    algorithm,
		SamplingRate: cfg.Rate,
		PeriodOps:    4096,
		Seed:         11,
		Serialized:   serialized,
	})
	main := d.NewThread()
	shared := make([]pacer.VarID, 4)
	for i := range shared {
		shared[i] = d.NewVarID()
	}
	m := d.NewMutex()
	workers := make([]pacer.ThreadID, goroutines)
	privates := make([][]pacer.VarID, goroutines)
	for g := range workers {
		workers[g] = d.Fork(main)
		privates[g] = make([]pacer.VarID, 8)
		for i := range privates[g] {
			privates[g][i] = d.NewVarID()
		}
	}
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for g, tid := range workers {
		wg.Add(1)
		go func(tid pacer.ThreadID, g int) {
			defer wg.Done()
			private := privates[g]
			site := pacer.SiteID(g * 1000)
			for i := 0; i < cfg.Ops; i++ {
				switch {
				case i%512 == 511: // occasional lock-guarded shared update
					m.Lock(tid)
					d.Write(tid, shared[g%len(shared)], site)
					m.Unlock(tid)
				case i%cfg.SharedEvery == 0:
					d.Read(tid, shared[i%len(shared)], site)
				case i%4 == 0:
					d.Write(tid, private[i%len(private)], site)
				default:
					d.Read(tid, private[i%len(private)], site)
				}
			}
		}(tid, g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	totalOps := float64(goroutines) * float64(cfg.Ops)
	st := d.Stats()
	return Measure{
		OpsPerSec:   totalOps / elapsed,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / totalOps,
		MetaWords:   st.MetadataWords,
		Stats:       st,
	}
}

// Frontend runs the front-end scaling and backend measurements.
func Frontend(cfg FrontendConfig) *FrontendResult {
	cfg.fill()
	res := &FrontendResult{Rate: cfg.Rate, Ops: cfg.Ops, Algorithms: cfg.Algorithms}
	for _, g := range cfg.Goroutines {
		// Baseline and concurrent interleaved per level so thermal/load
		// drift hits both sides roughly equally.
		base := frontendRun(cfg, g, "pacer", true)
		conc := frontendRun(cfg, g, "pacer", false)
		res.Rows = append(res.Rows, FrontendRow{
			Goroutines: g, Base: base, Conc: conc,
			Speedup: conc.OpsPerSec / base.OpsPerSec,
		})
	}
	for _, g := range cfg.Goroutines {
		row := BackendRow{Goroutines: g}
		for _, algo := range cfg.Algorithms {
			row.Measures = append(row.Measures, frontendRun(cfg, g, algo, false))
		}
		res.Backends = append(res.Backends, row)
	}
	return res
}

// Render prints the scaling and backend tables.
func (f *FrontendResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Front-end ingestion throughput (real wall clock, r = %.2f, %d ops/goroutine)\n", f.Rate, f.Ops)
	fmt.Fprintf(w, "%-11s  %15s  %15s  %8s  %11s  %11s  %10s\n",
		"goroutines", "serialized op/s", "concurrent op/s", "speedup", "ser alloc/op", "conc alloc/op", "meta words")
	rule(w, 94)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-11d  %15.3e  %15.3e  %7.2fx  %11.4f  %12.4f  %10d\n",
			r.Goroutines, r.Base.OpsPerSec, r.Conc.OpsPerSec, r.Speedup,
			r.Base.AllocsPerOp, r.Conc.AllocsPerOp, r.Conc.MetaWords)
	}
	if len(f.Backends) == 0 {
		return
	}
	fmt.Fprintf(w, "\nBackend wall-clock comparison through the identical concurrent front-end\n")
	fmt.Fprintf(w, "%-11s", "goroutines")
	for _, a := range f.Algorithms {
		fmt.Fprintf(w, "  %15s  %10s  %10s", a+" op/s", "alloc/op", "meta words")
	}
	fmt.Fprintln(w)
	rule(w, 11+41*len(f.Algorithms))
	for _, r := range f.Backends {
		fmt.Fprintf(w, "%-11d", r.Goroutines)
		for _, m := range r.Measures {
			fmt.Fprintf(w, "  %15.3e  %10.4f  %10d", m.OpsPerSec, m.AllocsPerOp, m.MetaWords)
		}
		fmt.Fprintln(w)
	}
}
