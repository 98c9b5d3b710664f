package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"pacer"
)

// Clocks measures the tree-clock timestamping engine head-to-head against
// the flat vector clock (real wall clock, this machine) on the workload
// the tree representation exists for: sync-heavy handoff at high simulated
// thread counts. Each compared backend (every sharded backend honors
// Options.Clock; PACER, FASTTRACK, and the O(1)-samples backend by
// default) is mounted twice behind the identical concurrent front-end,
// once per representation, on the same operation stream.
//
// The workload models the thread-pool shape PACER deployments actually
// see: many simulated threads exist — every clock mentions all of them,
// so clocks are Threads wide — but at any moment only a small active set
// is doing synchronization. Each active thread mostly reacquires its own
// mutex and periodically hands off to its neighbor in the active set, so
// each sync operation genuinely changes only a handful of entries. The
// flat representation still pays O(Threads) per join and per release copy
// (it must scan the full width to discover that nothing else moved); the
// tree clock's last-update index certifies subsumption in O(1) and walks
// only the entries that changed, making per-sync cost proportional to the
// active delta rather than to how many threads ever existed. The gap
// should therefore grow with the simulated thread count while the active
// set (and the real parallelism) stays fixed.
//
// Unlike the simulator experiments this one measures this process on this
// hardware; numbers vary across machines, the shape (tree pulling ahead as
// threads grow, with fewer allocations per operation) should not.

// ClocksConfig configures the clock-representation measurement.
type ClocksConfig struct {
	// Threads lists the simulated thread counts — the clock widths — to
	// measure (default 8, 64, 512). Real parallelism is capped separately
	// (Goroutines).
	Threads []int
	// Active is the number of simulated threads doing synchronization in
	// the measured window (default min(8, Threads[i])); the rest exist
	// only to give every clock its full width.
	Active int
	// Goroutines is the number of OS-scheduled workers driving the active
	// threads (default min(8, GOMAXPROCS)).
	Goroutines int
	// Ops is the per-goroutine sync-operation count (default 100_000).
	Ops int
	// HandoffEvery makes one in N sync ops acquire the neighboring
	// thread's mutex instead of reacquiring the thread's own (default 4),
	// so knowledge keeps trickling around the chain and joins stay
	// genuinely non-empty without ever touching more than a few entries.
	HandoffEvery int
	// Algorithms lists the backends compared; every sharded backend honors
	// Options.Clock (default pacer, fasttrack, o1samples).
	Algorithms []string
	// Rate is the sampling rate (default 1.0: full clock work on every
	// operation, the representation-stress configuration).
	Rate float64
}

func (c *ClocksConfig) fill() {
	if c.Threads == nil {
		c.Threads = []int{8, 64, 512}
	}
	if c.Active <= 0 {
		c.Active = 8
	}
	if c.Goroutines <= 0 {
		c.Goroutines = 8
		if n := runtime.GOMAXPROCS(0); n < 8 {
			c.Goroutines = n
		}
	}
	if c.Ops <= 0 {
		c.Ops = 100_000
	}
	if c.HandoffEvery <= 0 {
		c.HandoffEvery = 4
	}
	if c.Algorithms == nil {
		c.Algorithms = []string{"pacer", "fasttrack", "o1samples"}
	}
	if c.Rate == 0 {
		c.Rate = 1.0
	}
}

// ClocksRow is one (algorithm, simulated-thread-count) comparison.
type ClocksRow struct {
	Algorithm string
	Threads   int
	// Flat and Tree are the same backend mounted with the flat vector
	// clock and the tree clock.
	Flat, Tree Measure
	// Speedup is Tree.OpsPerSec / Flat.OpsPerSec.
	Speedup float64
	// AllocRatio is Tree.AllocsPerOp / Flat.AllocsPerOp (0 when the flat
	// mount did not allocate).
	AllocRatio float64
}

// ClocksResult holds the head-to-head table.
type ClocksResult struct {
	Rate       float64
	Ops        int
	Goroutines int
	Rows       []ClocksRow
}

// clocksRun drives the handoff workload through one (algorithm, clock)
// mount and measures it. Identifier allocation and goroutine setup happen
// before the measured window.
func clocksRun(cfg ClocksConfig, threads int, algorithm, clock string) Measure {
	d := pacer.New(pacer.Options{
		Algorithm:    algorithm,
		SamplingRate: cfg.Rate,
		PeriodOps:    4096,
		Seed:         11,
		Clock:        clock,
	})
	active := cfg.Active
	if active > threads {
		active = threads
	}
	main := d.NewThread()
	workers := make([]pacer.ThreadID, threads)
	for i := range workers {
		workers[i] = d.Fork(main)
	}
	own := make([]*pacer.Mutex, active)
	guarded := make([]pacer.VarID, active)
	for i := range own {
		own[i] = d.NewMutex()
		guarded[i] = d.NewVarID()
	}

	// Warm-up: two barrier rounds through one mutex. Each release copies
	// the holder's clock into the barrier after the acquire joined it, so
	// knowledge accumulates across the first round and the second spreads
	// it back out — every clock ends at full width. The measured window
	// then compares the representations at stable width instead of
	// measuring growth reallocation, which neither is designed around.
	bar := d.NewMutex()
	for r := 0; r < 2; r++ {
		for _, tid := range workers {
			bar.Lock(tid)
			bar.Unlock(tid)
		}
	}

	goroutines := cfg.Goroutines
	if goroutines > active {
		goroutines = active
	}
	var wg sync.WaitGroup
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			site := pacer.SiteID(g * 1000)
			// Each worker round-robins its share of the active threads.
			for i := 0; i < cfg.Ops; i++ {
				th := g + (i%((active+goroutines-1)/goroutines))*goroutines
				if th >= active {
					th = g
				}
				tid := workers[th]
				m := th
				if i%cfg.HandoffEvery == 0 {
					m = (th + 1) % active // neighbor handoff
				}
				own[m].Lock(tid)
				d.Write(tid, guarded[m], site)
				own[m].Unlock(tid)
			}
		}(g)
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

// Clocks runs the flat-versus-tree comparison for every Clock-aware
// backend at every simulated thread count.
func Clocks(cfg ClocksConfig) *ClocksResult {
	cfg.fill()
	res := &ClocksResult{Rate: cfg.Rate, Ops: cfg.Ops, Goroutines: cfg.Goroutines}
	for _, algo := range cfg.Algorithms {
		for _, threads := range cfg.Threads {
			// Flat and tree interleaved per cell so thermal/load drift hits
			// both representations roughly equally.
			flat := clocksRun(cfg, threads, algo, "")
			tree := clocksRun(cfg, threads, algo, "tree")
			row := ClocksRow{
				Algorithm: algo, Threads: threads,
				Flat: flat, Tree: tree,
				Speedup: tree.OpsPerSec / flat.OpsPerSec,
			}
			if flat.AllocsPerOp > 0 {
				row.AllocRatio = tree.AllocsPerOp / flat.AllocsPerOp
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// Render prints the head-to-head table.
func (c *ClocksResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Clock representation head-to-head (real wall clock, r = %.2f, %d sync ops/goroutine, %d goroutines)\n",
		c.Rate, c.Ops, c.Goroutines)
	fmt.Fprintf(w, "%-10s  %8s  %14s  %14s  %8s  %13s  %13s  %11s\n",
		"backend", "threads", "flat op/s", "tree op/s", "speedup",
		"flat alloc/op", "tree alloc/op", "alloc ratio")
	rule(w, 102)
	for _, r := range c.Rows {
		fmt.Fprintf(w, "%-10s  %8d  %14.3e  %14.3e  %7.2fx  %13.4f  %13.4f  %10.2fx\n",
			r.Algorithm, r.Threads, r.Flat.OpsPerSec, r.Tree.OpsPerSec, r.Speedup,
			r.Flat.AllocsPerOp, r.Tree.AllocsPerOp, r.AllocRatio)
	}
}
