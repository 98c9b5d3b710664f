// Package loadtest drives the ingest tier the way a large fleet does:
// thousands of simulated reporters pushing concurrently through the full
// HTTP pipeline (auth → decode → rate-limit → shed → merge), with fault
// injection — dropped responses, malformed pushes, shed retries — and a
// graceful collector restart mid-run (Close writes the final state
// snapshot; a successor service restores it, the SIGTERM drain path).
//
// It asserts the ingest tier's three load-bearing claims:
//
//   - bounded memory: the accounted state never exceeds its configured
//     cap at any sampled point, and nothing was evicted (so the
//     zero-loss claim below is meaningful, not vacuous);
//   - zero triage loss: after every reporter's final push is
//     acknowledged, the collector's merged /races view is byte-identical
//     to an in-process reference aggregator fed each reporter's final
//     cumulative triage list — across the restart;
//   - delta efficiency: steady-state delta pushes are several times
//     smaller on the wire than the cumulative pushes they replace.
//
// The reporters are simulated (hand-rolled protocol loops, not
// fleet.Reporter) so one process can run thousands without a goroutine
// and timer per instance; the protocol behavior they exercise — v1→v2
// negotiation via the ack header, BaseSeq delta chains, 409-triggered
// resyncs, retries of unacknowledged pushes — is the real one, against
// the real service.
package loadtest

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pacer"
	"pacer/internal/fleet"
	"pacer/internal/ingest"
)

// Config sizes one load-test run. The zero value is filled with defaults
// sized for the acceptance run (1000+ reporters in a few seconds).
type Config struct {
	// Reporters is the simulated fleet size. Default 1000.
	Reporters int
	// Rounds is how many push rounds each reporter runs. Default 8.
	Rounds int
	// RacesPerReporter is each reporter's initial triage-list size; later
	// rounds mutate one entry and add one more, so steady-state deltas
	// stay two entries against a cumulative list this long. Default 160.
	RacesPerReporter int
	// DropRate is the probability a push's response is lost in transit —
	// the reporter must retry and the collector must absorb the replay
	// idempotently. Default 0.05.
	DropRate float64
	// MalformedRate is the probability a reporter emits a corrupt push
	// (must be rejected with 400 and no state effect). Default 0.02.
	MalformedRate float64
	// Restart, when true (default via DefaultConfig), gracefully restarts
	// the collector — Close (final snapshot) then New (restore) — once
	// half the expected pushes have been acknowledged.
	Restart bool
	// StateDir is where the collector persists state across the restart.
	// Required when Restart is set.
	StateDir string
	// MaxStateBytes caps the collector state; 0 derives a bound that
	// holds the whole fleet with bounded slack, so the run both enforces
	// a real cap and loses nothing.
	MaxStateBytes int64
	// Workers bounds reporter concurrency. Default 64.
	Workers int
	// Seed makes the run deterministic. Default 1.
	Seed int64
}

// Result is one run's outcome.
type Result struct {
	Reporters      int
	Pushes         uint64 // acknowledged pushes (full + delta)
	FullPushes     uint64
	DeltaPushes    uint64
	Resyncs        uint64 // 409-triggered cumulative fallbacks
	Replays        uint64 // retries after a dropped response
	Malformed      uint64 // corrupt pushes sent (all must 400)
	ShedRetries    uint64 // retries after a 503 shed
	Restarted      bool
	MaxStateBytes  int64 // highest sampled accounted state size
	StateCap       int64 // the configured bound
	Evicted        uint64
	FullWireBytes  uint64 // steady-state cumulative pushes, total encoded size
	DeltaWireBytes uint64 // the deltas that replaced them, total encoded size
	DeltaShrink    float64
	RacesMatch     bool // merged /races == in-process reference, byte-identical
	Elapsed        time.Duration
}

// Render writes the run summary as a pacerbench section.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "ingest load test: %d reporters, %d pushes acked (%d full, %d delta), %d resyncs\n",
		r.Reporters, r.Pushes, r.FullPushes, r.DeltaPushes, r.Resyncs)
	fmt.Fprintf(w, "  faults injected: %d dropped responses (replayed), %d malformed pushes, %d shed retries\n",
		r.Replays, r.Malformed, r.ShedRetries)
	fmt.Fprintf(w, "  restart mid-run: %v\n", r.Restarted)
	fmt.Fprintf(w, "  state memory: peak %d bytes of %d cap, %d evicted\n",
		r.MaxStateBytes, r.StateCap, r.Evicted)
	fmt.Fprintf(w, "  delta efficiency: %d full-push bytes vs %d delta bytes = %.1fx smaller\n",
		r.FullWireBytes, r.DeltaWireBytes, r.DeltaShrink)
	fmt.Fprintf(w, "  zero triage loss: races match reference = %v\n", r.RacesMatch)
	fmt.Fprintf(w, "  elapsed: %v\n", r.Elapsed.Round(time.Millisecond))
}

// collector wraps the service so reporters keep pushing across the
// graceful mid-run restart: deliveries hold the read lock, the restart
// holds the write lock, so no push is in flight while the old service
// drains and the successor restores.
type collector struct {
	mu      sync.RWMutex
	svc     *ingest.Service
	handler http.Handler
	opts    ingest.Options
}

func (c *collector) deliver(req *http.Request) *httptest.ResponseRecorder {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rec := httptest.NewRecorder()
	c.handler.ServeHTTP(rec, req)
	return rec
}

func (c *collector) restart() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.svc.Close(); err != nil { // writes the final snapshot
		return fmt.Errorf("loadtest: closing collector: %w", err)
	}
	svc, err := ingest.New(c.opts) // restores it
	if err != nil {
		return fmt.Errorf("loadtest: restarting collector: %w", err)
	}
	c.svc = svc
	c.handler = svc.Handler()
	return nil
}

func (c *collector) state() *ingest.State {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.svc.State()
}

// reporter is one simulated instance: its cumulative triage list, its
// delta base, and the protocol state a real fleet.Reporter would keep.
type reporter struct {
	name    string
	epoch   uint64
	seq     uint64
	rng     *rand.Rand
	entries map[fleet.TriageKey]fleet.TriageEntry
	base    map[fleet.TriageKey]fleet.TriageEntry
	baseSeq uint64
	deltaOK bool
}

func (r *reporter) entryFor(idx, count int) fleet.TriageEntry {
	// Globally unique sites per (reporter, entry) keep the merged
	// ordering fully determined — no count ties on identical sites.
	site := uint32(idx)
	return fleet.TriageEntry{
		Var:           uint32(idx % 97),
		Kind:          "write-write",
		FirstSite:     site,
		SecondSite:    site + 1,
		FirstThread:   1,
		SecondThread:  2,
		Count:         count,
		Instances:     1,
		FirstInstance: r.name,
	}
}

func (r *reporter) upsert(e fleet.TriageEntry) {
	r.entries[e.Key()] = e
}

// buildPush assembles the next push: a delta when negotiated and a base
// exists, else a full cumulative snapshot.
func (r *reporter) buildPush() (*fleet.Push, error) {
	r.seq++
	if r.deltaOK && r.base != nil {
		changed := fleet.DiffTriage(r.entries, r.base)
		if len(changed) > 0 {
			blob, err := fleet.MarshalTriage(changed)
			if err != nil {
				return nil, err
			}
			p := &fleet.Push{
				Version: fleet.SchemaVersionDelta, Instance: r.name, Epoch: r.epoch,
				Seq: r.seq, BaseSeq: r.baseSeq, Races: blob,
			}
			return p, nil
		}
	}
	blob, err := fleet.MarshalTriage(r.entries)
	if err != nil {
		return nil, err
	}
	ver := fleet.SchemaVersion
	if r.deltaOK {
		ver = fleet.SchemaVersionDelta
	}
	return &fleet.Push{Version: ver, Instance: r.name, Epoch: r.epoch, Seq: r.seq, Races: blob}, nil
}

func encodePush(p *fleet.Push) ([]byte, error) {
	var buf bytes.Buffer
	if err := fleet.EncodePush(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func fill(cfg Config) Config {
	if cfg.Reporters <= 0 {
		cfg.Reporters = 1000
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 8
	}
	if cfg.RacesPerReporter <= 0 {
		cfg.RacesPerReporter = 160
	}
	if cfg.DropRate == 0 {
		cfg.DropRate = 0.05
	}
	if cfg.MalformedRate == 0 {
		cfg.MalformedRate = 0.02
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxStateBytes <= 0 {
		// Room for every reporter's full final list plus bounded slack —
		// a real cap (the run asserts it holds) that still loses nothing.
		// The 2x covers hash imbalance across shards: the budget is split
		// evenly per shard, the instances are not.
		perEntry := int64(200)
		perReporter := int64(400) + perEntry*int64(cfg.RacesPerReporter+cfg.Rounds)
		cfg.MaxStateBytes = 2 * int64(cfg.Reporters) * perReporter
	}
	return cfg
}

// shardsFor keeps shards sparse enough that the even per-shard budget
// split tolerates hash imbalance at small fleet sizes.
func shardsFor(reporters int) int {
	n := reporters / 32
	if n < 1 {
		n = 1
	}
	if n > 32 {
		n = 32
	}
	return n
}

// Run executes one load test.
func Run(cfg Config) (*Result, error) {
	cfg = fill(cfg)
	if cfg.Restart && cfg.StateDir == "" {
		return nil, fmt.Errorf("loadtest: Restart requires StateDir")
	}
	start := time.Now()

	opts := ingest.Options{
		State: ingest.StateOptions{
			Shards:   shardsFor(cfg.Reporters),
			MaxBytes: cfg.MaxStateBytes,
		},
		QueueDepth:       1024,
		MergeWorkers:     8,
		StateDir:         cfg.StateDir,
		SnapshotInterval: time.Hour, // persistence is exercised via the restart's Close
	}
	svc, err := ingest.New(opts)
	if err != nil {
		return nil, err
	}
	coll := &collector{svc: svc, handler: svc.Handler(), opts: opts}
	defer func() {
		coll.mu.Lock()
		coll.svc.Close()
		coll.mu.Unlock()
	}()

	res := &Result{Reporters: cfg.Reporters, StateCap: cfg.MaxStateBytes}
	var (
		acked          atomic.Uint64
		fullPushes     atomic.Uint64
		deltaPushes    atomic.Uint64
		resyncs        atomic.Uint64
		replays        atomic.Uint64
		malformed      atomic.Uint64
		shedRetries    atomic.Uint64
		fullWireBytes  atomic.Uint64
		deltaWireBytes atomic.Uint64
		maxStateBytes  atomic.Int64
		restarted      atomic.Bool
		restartErr     atomic.Value
	)
	restartAt := uint64(cfg.Reporters*cfg.Rounds) / 2

	sampleState := func() {
		b := coll.state().Bytes()
		for {
			cur := maxStateBytes.Load()
			if b <= cur || maxStateBytes.CompareAndSwap(cur, b) {
				return
			}
		}
	}

	// sendAcked delivers p until the collector acknowledges it, replaying
	// through dropped responses and shed retries. A 409 returns resync
	// (the caller rebuilds a cumulative push); any other failure is fatal.
	type outcome int
	const (
		ackOK outcome = iota
		ackResync
	)
	sendAcked := func(r *reporter, p *fleet.Push) (outcome, error) {
		blob, err := encodePush(p)
		if err != nil {
			return ackOK, err
		}
		for attempt := 0; ; attempt++ {
			if attempt > 10_000 {
				return ackOK, fmt.Errorf("loadtest: push %s seq %d never acknowledged", r.name, p.Seq)
			}
			req := httptest.NewRequest(http.MethodPost, fleet.PushPath, bytes.NewReader(blob))
			rec := coll.deliver(req)
			dropped := r.rng.Float64() < cfg.DropRate
			if dropped {
				// The response is lost: the reporter cannot tell success
				// from failure and must replay. The collector absorbs the
				// replay idempotently (stale ack).
				replays.Add(1)
				continue
			}
			switch rec.Code {
			case http.StatusNoContent:
				if rec.Header().Get(fleet.ProtocolHeader) != "" {
					r.deltaOK = true
				}
				acked.Add(1)
				if p.BaseSeq != 0 {
					deltaPushes.Add(1)
				} else {
					fullPushes.Add(1)
				}
				return ackOK, nil
			case http.StatusConflict:
				return ackResync, nil
			case http.StatusServiceUnavailable:
				shedRetries.Add(1)
				time.Sleep(200 * time.Microsecond)
				continue
			default:
				return ackOK, fmt.Errorf("loadtest: push %s seq %d rejected: %d %s",
					r.name, p.Seq, rec.Code, rec.Body.String())
			}
		}
	}

	// pushRound builds and lands one round's push, falling back to a
	// cumulative snapshot when the collector asks (409 after restart or
	// eviction). It also meters steady-state wire sizes: for every delta
	// actually sent, the cumulative push it replaced is encoded too.
	pushRound := func(r *reporter) error {
		p, err := r.buildPush()
		if err != nil {
			return err
		}
		if p.BaseSeq != 0 {
			deltaBlob, err := encodePush(p)
			if err != nil {
				return err
			}
			fullEquivalent, err := fleet.MarshalTriage(r.entries)
			if err != nil {
				return err
			}
			fullBlob, err := encodePush(&fleet.Push{
				Version: fleet.SchemaVersionDelta, Instance: r.name, Epoch: r.epoch,
				Seq: p.Seq, Races: fullEquivalent,
			})
			if err != nil {
				return err
			}
			deltaWireBytes.Add(uint64(len(deltaBlob)))
			fullWireBytes.Add(uint64(len(fullBlob)))
		}
		out, err := sendAcked(r, p)
		if err != nil {
			return err
		}
		if out == ackResync {
			// Rebuild cumulative — the superset of every lost delta.
			resyncs.Add(1)
			r.base, r.baseSeq = nil, 0
			full, err := r.buildPush()
			if err != nil {
				return err
			}
			if out, err = sendAcked(r, full); err != nil {
				return err
			}
			if out == ackResync {
				return fmt.Errorf("loadtest: collector rejected a cumulative push from %s with 409", r.name)
			}
			p = full
		}
		// The push (delta or cumulative) landed: it is the new base.
		if r.deltaOK {
			r.base = make(map[fleet.TriageKey]fleet.TriageEntry, len(r.entries))
			for k, v := range r.entries {
				r.base[k] = v
			}
			r.baseSeq = p.Seq
		}
		return nil
	}

	sendMalformed := func(r *reporter) error {
		malformed.Add(1)
		req := httptest.NewRequest(http.MethodPost, fleet.PushPath,
			bytes.NewReader([]byte("\x1f\x8b garbage that is not a push")))
		rec := coll.deliver(req)
		if rec.Code != http.StatusBadRequest {
			return fmt.Errorf("loadtest: malformed push answered %d, want 400", rec.Code)
		}
		return nil
	}

	reporters := make([]*reporter, cfg.Reporters)
	for i := range reporters {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		reporters[i] = &reporter{
			name:    fmt.Sprintf("load-%05d", i),
			epoch:   rng.Uint64() | 1,
			rng:     rng,
			entries: make(map[fleet.TriageKey]fleet.TriageEntry),
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, cfg.Reporters)
	sem := make(chan struct{}, cfg.Workers)
	for i, r := range reporters {
		wg.Add(1)
		go func(i int, r *reporter) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			siteBase := i * 100_000
			for round := 0; round < cfg.Rounds; round++ {
				if round == 0 {
					for e := 0; e < cfg.RacesPerReporter; e++ {
						r.upsert(r.entryFor(siteBase+2*e, 1+r.rng.Intn(5)))
					}
				} else {
					// Steady state: one counter bump, one fresh race.
					bumped := r.entryFor(siteBase, 10+round)
					r.upsert(bumped)
					r.upsert(r.entryFor(siteBase+2*(cfg.RacesPerReporter+round), 1))
				}
				if r.rng.Float64() < cfg.MalformedRate {
					if err := sendMalformed(r); err != nil {
						errs <- err
						return
					}
				}
				if err := pushRound(r); err != nil {
					errs <- err
					return
				}
				if cfg.Restart && !restarted.Load() && acked.Load() >= restartAt {
					if restarted.CompareAndSwap(false, true) {
						if err := coll.restart(); err != nil {
							restartErr.Store(err)
							errs <- err
							return
						}
					}
				}
				if round%2 == 1 {
					sampleState()
				}
			}
			sampleState()
		}(i, r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	// Zero-loss verdict: the collector's merged view against a reference
	// aggregator fed each reporter's final cumulative list, in the same
	// sorted-instance order the collector merges in.
	sort.Slice(reporters, func(i, j int) bool { return reporters[i].name < reporters[j].name })
	ref := pacer.NewAggregator()
	for _, r := range reporters {
		blob, err := fleet.MarshalTriage(r.entries)
		if err != nil {
			return nil, err
		}
		if err := ref.ImportJSON(blob); err != nil {
			return nil, err
		}
	}
	refBlob, err := ref.MarshalJSON()
	if err != nil {
		return nil, err
	}
	merged, err := coll.state().Merged()
	if err != nil {
		return nil, fmt.Errorf("loadtest: merging collector state: %w", err)
	}
	gotBlob, err := merged.MarshalJSON()
	if err != nil {
		return nil, err
	}

	res.Pushes = acked.Load()
	res.FullPushes = fullPushes.Load()
	res.DeltaPushes = deltaPushes.Load()
	res.Resyncs = resyncs.Load()
	res.Replays = replays.Load()
	res.Malformed = malformed.Load()
	res.ShedRetries = shedRetries.Load()
	res.Restarted = restarted.Load()
	res.MaxStateBytes = maxStateBytes.Load()
	res.Evicted = coll.state().Evicted()
	res.FullWireBytes = fullWireBytes.Load()
	res.DeltaWireBytes = deltaWireBytes.Load()
	if res.DeltaWireBytes > 0 {
		res.DeltaShrink = float64(res.FullWireBytes) / float64(res.DeltaWireBytes)
	}
	res.RacesMatch = bytes.Equal(gotBlob, refBlob)
	res.Elapsed = time.Since(start)
	return res, nil
}

// Check validates res against the acceptance bar, returning a joined
// error describing every violated claim.
func Check(res *Result) error {
	var problems []string
	if !res.RacesMatch {
		problems = append(problems, "merged /races diverged from the in-process reference (triage loss)")
	}
	if res.MaxStateBytes > res.StateCap {
		problems = append(problems, fmt.Sprintf("state peaked at %d bytes, over the %d cap",
			res.MaxStateBytes, res.StateCap))
	}
	if res.Evicted != 0 {
		problems = append(problems, fmt.Sprintf("%d instances evicted (cap sized wrong for the run)", res.Evicted))
	}
	if res.DeltaPushes == 0 {
		problems = append(problems, "no delta pushes: v2 negotiation never engaged")
	}
	if res.DeltaShrink < 5 {
		problems = append(problems, fmt.Sprintf("steady-state deltas only %.1fx smaller than full pushes, want >= 5x",
			res.DeltaShrink))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("loadtest: %s", joinWith(problems, "; "))
}

func joinWith(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
