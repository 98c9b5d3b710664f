package harness

import (
	"fmt"
	"io"
)

// FastTrackScaling measures the real (wall-clock, this machine) ingestion
// throughput of the always-on FASTTRACK backend behind the public
// front-end, sharded versus serialized. This is the companion to the
// Frontend experiment for detectors without sampling periods: FASTTRACK
// can never dismiss an access for lack of metadata (every access installs
// some, so the sampling flag is constantly set), but its own dominant
// case — an access repeating the variable's current epoch — is a
// guaranteed no-op, and the sharded mount serves it lock-free through
// the same-epoch stage of FASTTRACK's dismissal chain (and a shared read
// through the owned-access stage). Everything else takes the sharded slow
// path: a shared epoch-lock hold plus the variable's shard lock.
// Serialized mode funnels every access through one exclusive mutex and
// runs no stage, so the speedup column isolates what teaching FASTTRACK
// the Sharded contract and its stages bought.
//
// Unlike the simulator experiments this one measures this process on this
// hardware; numbers vary across machines, the shape (speedup > 1, growing
// with goroutines) should not.

// FastTrackConfig configures the always-on scaling measurement.
type FastTrackConfig struct {
	// Goroutines lists the parallelism levels to measure (default 1,2,4,8).
	Goroutines []int
	// Ops is the per-goroutine operation count (default 200_000).
	Ops int
	// SharedEvery makes one in N accesses touch a variable shared by all
	// goroutines (default 16).
	SharedEvery int
}

func (c *FastTrackConfig) fill() {
	if c.Goroutines == nil {
		c.Goroutines = []int{1, 2, 4, 8}
	}
	if c.Ops <= 0 {
		c.Ops = 200_000
	}
	if c.SharedEvery <= 0 {
		c.SharedEvery = 16
	}
}

// FastTrackRow is one parallelism level's measurement.
type FastTrackRow struct {
	Goroutines int
	// Base and Conc are the serialized and sharded front-end measures.
	Base, Conc Measure
	// Speedup is Conc.OpsPerSec / Base.OpsPerSec.
	Speedup float64
}

// FastTrackResult holds the always-on scaling table.
type FastTrackResult struct {
	Ops  int
	Rows []FastTrackRow
}

// FastTrackScaling runs the sharded-versus-serialized FASTTRACK
// measurement. It reuses the frontend experiment's workload and
// measurement harness, so the columns are directly comparable with the
// PACER scaling table. (The name avoids the FastTrack DetectorKind
// constant used by the simulator experiments.)
func FastTrackScaling(cfg FastTrackConfig) *FastTrackResult {
	cfg.fill()
	fcfg := FrontendConfig{
		Goroutines:  cfg.Goroutines,
		Ops:         cfg.Ops,
		SharedEvery: cfg.SharedEvery,
	}
	fcfg.fill()
	res := &FastTrackResult{Ops: fcfg.Ops}
	for _, g := range fcfg.Goroutines {
		// Baseline and sharded interleaved per level so thermal/load drift
		// hits both sides roughly equally.
		base := frontendRun(fcfg, g, "fasttrack", true)
		conc := frontendRun(fcfg, g, "fasttrack", false)
		res.Rows = append(res.Rows, FastTrackRow{
			Goroutines: g, Base: base, Conc: conc,
			Speedup: conc.OpsPerSec / base.OpsPerSec,
		})
	}
	return res
}

// Render prints the always-on scaling table.
func (f *FastTrackResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Always-on FASTTRACK ingestion throughput (real wall clock, %d ops/goroutine)\n", f.Ops)
	fmt.Fprintf(w, "%-11s  %15s  %15s  %8s  %11s  %11s  %10s\n",
		"goroutines", "serialized op/s", "sharded op/s", "speedup", "ser alloc/op", "shd alloc/op", "meta words")
	rule(w, 94)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-11d  %15.3e  %15.3e  %7.2fx  %11.4f  %12.4f  %10d\n",
			r.Goroutines, r.Base.OpsPerSec, r.Conc.OpsPerSec, r.Speedup,
			r.Base.AllocsPerOp, r.Conc.AllocsPerOp, r.Conc.MetaWords)
	}
}
