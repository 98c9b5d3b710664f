// fleet: the deployment scenario PACER was designed for (Sections 1 and
// 3): many deployed instances each run the detector at a very low sampling
// rate, and a central collector aggregates their reports, as in
// distributed-debugging frameworks like Cooperative Bug Isolation.
//
// The simulated application has several distinct races with different
// occurrence frequencies — including one that manifests in only ~5% of
// sessions. No single cheap run is likely to catch anything, but because
// PACER detects each race with probability (occurrence × sampling rate),
// the fleet as a whole finds every race with probability approaching
// 1 - (1 - o·r)^instances.
//
// Unlike the in-process sketch this example used to be, the reports here
// really leave the box: each host wraps its aggregator in a
// fleet.Reporter that pushes gzip JSON snapshots over loopback HTTP to a
// collector (the same internal/ingest.Service that cmd/pacerd mounts as
// a daemon), and the triage table below is read back from the collector's
// /races endpoint.
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"pacer"
	"pacer/internal/fleet"
	"pacer/internal/ingest"
)

// bug describes one planted race: the session executes its racy pair with
// probability occur.
type bug struct {
	name  string
	occur float64
	site  pacer.SiteID
}

var bugs = []bug{
	{"stale-config-read", 1.00, 100},
	{"double-checked-init", 0.60, 200},
	{"shutdown-flag", 0.25, 300},
	{"rare-resize-race", 0.05, 400},
}

// session simulates one deployed instance: background synchronized work
// plus whichever racy pairs this session happens to execute.
func session(rate float64, seed int64, report func(pacer.Race)) {
	// The occurrence RNG and the detector's period RNG must be independent
	// streams, or "bug occurs this session" would correlate with "period
	// sampled this session".
	rng := rand.New(rand.NewSource(seed))
	d := pacer.New(pacer.Options{
		SamplingRate: rate,
		PeriodOps:    64,
		Seed:         seed*2654435761 + 97,
		OnRace:       report,
	})
	main := d.NewThread()
	mu := d.NewMutex()
	work := pacer.NewShared(d, 0)
	vars := make([]pacer.VarID, len(bugs))
	for i := range bugs {
		vars[i] = d.NewVarID()
	}

	a, b := d.Fork(main), d.Fork(main)
	occurs := make([]bool, len(bugs))
	for i, bg := range bugs {
		occurs[i] = rng.Float64() < bg.occur
	}
	// Thread a: synchronized background work, then its half of each racy
	// pair (writes).
	for i := 0; i < 60; i++ {
		mu.Lock(a)
		work.Update(a, 1, func(x int) int { return x + 1 })
		mu.Unlock(a)
	}
	for i, bg := range bugs {
		if occurs[i] {
			d.Write(a, vars[i], bg.site)
		}
	}
	// Thread b: more background work, then the consuming halves (reads).
	for i := 0; i < 60; i++ {
		mu.Lock(b)
		work.Update(b, 2, func(x int) int { return x + 1 })
		mu.Unlock(b)
	}
	for i, bg := range bugs {
		if occurs[i] {
			d.Read(b, vars[i], bg.site+1)
		}
	}
	d.Join(main, a)
	d.Join(main, b)
}

func main() {
	const rate = 0.02
	const hosts = 8
	const sessionsPerHost = 500
	const instances = hosts * sessionsPerHost

	// The collector — the exact handler cmd/pacerd serves — listens on a
	// loopback socket, standing in for a central race-triage service.
	col, err := ingest.New(ingest.Options{})
	if err != nil {
		panic(err)
	}
	defer col.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := &http.Server{Handler: col.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Each host runs its share of the sessions, funneling reports into a
	// host-local aggregator whose fleet.Reporter pushes snapshots to the
	// collector in the background. Hosts run concurrently, like a fleet.
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			host := fmt.Sprintf("host-%02d", h)
			agg := pacer.NewAggregator()
			rep, err := fleet.NewReporter(agg, fleet.ReporterOptions{
				Collector: base,
				Instance:  host,
				Interval:  20 * time.Millisecond,
				Seed:      int64(h) + 1,
			})
			if err != nil {
				panic(err)
			}
			for i := 0; i < sessionsPerHost; i++ {
				inst := h*sessionsPerHost + i + 1
				session(rate, int64(inst), agg.Reporter(fmt.Sprintf("%s/inst-%d", host, inst)))
			}
			// Flush the final snapshot before the host "shuts down".
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := rep.Close(ctx); err != nil {
				panic(err)
			}
		}(h)
	}
	wg.Wait()

	// The triage dashboard reads the merged fleet view back off the wire.
	resp, err := http.Get(base + "/races")
	if err != nil {
		panic(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	agg := pacer.NewAggregator()
	if err := agg.ImportJSON(blob); err != nil {
		panic(err)
	}

	firstSeen := map[pacer.SiteID]string{}
	counts := map[pacer.SiteID]int{}
	for _, ar := range agg.Races() {
		site := min(ar.Example.FirstSite, ar.Example.SecondSite)
		firstSeen[site] = ar.FirstInstance
		counts[site] += ar.Count
	}

	fmt.Printf("fleet of %d instances on %d hosts, each sampling at r = %.0f%%\n\n",
		instances, hosts, rate*100)
	fmt.Printf("%-22s %10s %12s %22s %16s\n", "race", "occurrence", "reports", "first seen", "expect≥1 @fleet")
	for i := len(bugs) - 1; i >= 0; i-- {
		bg := bugs[i]
		pAll := 1 - math.Pow(1-bg.occur*rate, instances)
		first := "never"
		if f, ok := firstSeen[bg.site]; ok {
			first = f
		}
		fmt.Printf("%-22s %9.0f%% %12d %22s %15.1f%%\n",
			bg.name, bg.occur*100, counts[bg.site], first, pAll*100)
	}

	fmt.Printf("\n%d distinct races surfaced across the fleet; each individual\n", agg.Distinct())
	fmt.Println("instance paid only the ~2% sampling-rate overhead. That is the")
	fmt.Println("\"get what you pay for\" deployment model of the paper.")

	// The collector's metrics endpoint is what a dashboard would scrape.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		panic(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ncollector metrics (%s/metrics):\n%s", base, metrics)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}
