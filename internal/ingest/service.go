package ingest

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pacer/internal/fleet"
)

// Options configure a Service. The zero value is a working open
// collector with defaults matching the original cmd/pacerd.
type Options struct {
	// State configures the sharded collector state.
	State StateOptions
	// MaxBodyBytes bounds the compressed size of one push. Default 8 MiB.
	MaxBodyBytes int64
	// MaxDecompressedBytes bounds one push after gzip inflation. Default
	// 10 * MaxBodyBytes.
	MaxDecompressedBytes int64
	// AuthToken, when non-empty, requires every push to carry
	// "Authorization: Bearer <token>". Read-only endpoints stay open.
	AuthToken string
	// PushRate and PushBurst configure the per-instance token bucket
	// (pushes per second, burst capacity). PushRate <= 0 disables rate
	// limiting.
	PushRate, PushBurst float64
	// QueueDepth bounds the pushes waiting to merge; beyond it pushes
	// are shed with 503. Default 256.
	QueueDepth int
	// MergeWorkers is the number of merges run at once, each on its
	// push's handler goroutine. Default 4.
	MergeWorkers int
	// StateDir, when non-empty, enables snapshot/restore: the state is
	// restored from StateDir on New and persisted there periodically and
	// on Close (atomic rename, versioned format).
	StateDir string
	// SnapshotInterval is the periodic persistence cadence. Default 30s.
	// Ignored without StateDir.
	SnapshotInterval time.Duration
	// Clock supplies timestamps; tests inject a fake. Default time.Now.
	Clock func() time.Time
	// OnError observes background failures (snapshot writes). Optional.
	OnError func(error)
}

// Service is the assembled ingest tier: the stage pipeline mounted on
// /v1/push, the sharded state behind it, and the snapshot loop beside
// it. cmd/pacerd wraps it in a daemon; tests mount it on loopback
// listeners.
type Service struct {
	opts  Options
	state *State

	pipe   *Pipeline
	decode *Decode
	auth   *Auth
	limit  *RateLimit
	queue  *Queue
	merge  *Merge

	snapshots    atomic.Uint64
	snapshotErrs atomic.Uint64
	lastSnapshot atomic.Int64 // unix seconds

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// New builds the service, restoring persisted state when Options.
// StateDir holds a snapshot, and starts the periodic snapshot loop.
func New(opts Options) (*Service, error) {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	if opts.MaxDecompressedBytes <= 0 {
		opts.MaxDecompressedBytes = 10 * opts.MaxBodyBytes
	}
	if opts.SnapshotInterval <= 0 {
		opts.SnapshotInterval = 30 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.State.Clock == nil {
		opts.State.Clock = opts.Clock
	}
	s := &Service{
		opts:  opts,
		state: NewState(opts.State),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if opts.StateDir != "" {
		snap, err := ReadSnapshotFile(opts.StateDir)
		if err != nil {
			return nil, err
		}
		if snap != nil {
			if err := s.state.Restore(snap); err != nil {
				return nil, err
			}
		}
	}

	s.decode = &Decode{MaxDecompressed: opts.MaxDecompressedBytes}
	s.auth = &Auth{Token: opts.AuthToken}
	s.limit = &RateLimit{Rate: opts.PushRate, Burst: opts.PushBurst, Clock: opts.Clock}
	s.merge = &Merge{State: s.state}
	s.queue = NewQueue(s.merge, opts.QueueDepth, opts.MergeWorkers)
	s.pipe = NewPipeline(s.auth, s.decode, s.limit, s.queue)

	go s.snapshotLoop()
	return s, nil
}

// State exposes the sharded state (tests, load harness).
func (s *Service) State() *State { return s.state }

// snapshotLoop persists the state every SnapshotInterval. The final
// snapshot on Close makes a clean shutdown independent of this timer.
func (s *Service) snapshotLoop() {
	defer close(s.done)
	if s.opts.StateDir == "" {
		<-s.stop
		return
	}
	ticker := time.NewTicker(s.opts.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if err := s.SaveSnapshot(); err != nil && s.opts.OnError != nil {
				s.opts.OnError(err)
			}
		}
	}
}

// SaveSnapshot persists the state to StateDir now (atomic rename). It
// retries transient filesystem errors with backoff before giving up.
func (s *Service) SaveSnapshot() error {
	if s.opts.StateDir == "" {
		return nil
	}
	snap := s.state.Snapshot()
	var err error
	for attempt, backoff := 0, 5*time.Millisecond; attempt < 3; attempt, backoff = attempt+1, backoff*2 {
		if attempt > 0 {
			time.Sleep(backoff)
		}
		if err = WriteSnapshotFile(s.opts.StateDir, snap); err == nil {
			s.snapshots.Add(1)
			s.lastSnapshot.Store(s.opts.Clock().Unix())
			return nil
		}
	}
	s.snapshotErrs.Add(1)
	return err
}

// Close stops the snapshot loop, refuses new merges and waits for the
// running ones, then writes a final state snapshot — a clean shutdown
// never depends on the periodic timer having fired recently. Idempotent.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		s.queue.Close()
		s.closeErr = s.SaveSnapshot()
	})
	return s.closeErr
}

// Handler returns the service's HTTP surface:
//
//	POST /v1/push  — the ingest pipeline (auth → decode → rate-limit →
//	                 shed(merge)), acks carrying ProtocolHeader
//	GET  /races    — the merged fleet-wide triage list as JSON
//	GET  /healthz  — liveness
//	GET  /metrics  — Prometheus text metrics (pacer_ingest_* pipeline
//	                 counters plus the pacer_collector_* continuity set)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(fleet.PushPath, s.handlePush)
	mux.HandleFunc("/races", s.handleRaces)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Service) handlePush(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "push must POST", http.StatusMethodNotAllowed)
		return
	}
	// Advertise delta capability on every push response; reporters act
	// on it only after a successful ack.
	w.Header().Set(fleet.ProtocolHeader, strconv.Itoa(fleet.SchemaVersionDelta))
	r := &Request{
		Header: req.Header,
		Body:   http.MaxBytesReader(w, req.Body, s.opts.MaxBodyBytes),
	}
	if err := s.pipe.Process(req.Context(), r); err != nil {
		status := StatusOf(err)
		if status == http.StatusUnauthorized {
			w.Header().Set("WWW-Authenticate", `Bearer realm="pacerd"`)
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleRaces(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "races must GET", http.StatusMethodNotAllowed)
		return
	}
	agg, err := s.state.Merged()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	blob, err := agg.MarshalJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
	w.Write([]byte("\n"))
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	rows := s.state.Rows()
	distinct, mergeFailing := 0, 0
	if agg, err := s.state.Merged(); err == nil {
		distinct = agg.Distinct()
	} else {
		mergeFailing = 1
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	// The ingest pipeline, one stage at a time, in pipeline order.
	counter("pacer_ingest_unauthorized_total",
		"Pushes rejected for a missing or wrong bearer token.", s.auth.Unauthorized())
	counter("pacer_ingest_decoded_total",
		"Pushes that decoded and validated (v1 cumulative or v2 delta).", s.decode.Decoded())
	counter("pacer_ingest_decode_errors_total",
		"Pushes rejected as malformed (gzip, schema, payload).", s.decode.Rejected())
	counter("pacer_ingest_ratelimited_total",
		"Pushes rejected by the per-instance token bucket (429).", s.limit.Limited())
	counter("pacer_ingest_ratelimit_pruned_total",
		"Token buckets pruned to hold the limiter map bound.", s.limit.Pruned())
	gauge("pacer_ingest_ratelimit_buckets",
		"Live per-instance token buckets.", int64(s.limit.Buckets()))
	counter("pacer_ingest_shed_total",
		"Pushes shed at a full merge queue (503; reporters retry).", s.queue.Shed())
	gauge("pacer_ingest_queue_depth",
		"Pushes waiting to merge right now.", int64(s.queue.Depth()))
	counter("pacer_ingest_merged_total",
		"Pushes applied to the sharded collector state.", s.merge.Merged())
	counter("pacer_ingest_stale_total",
		"Pushes acknowledged without effect (sequence not newer).", s.merge.Stale())
	counter("pacer_ingest_resyncs_total",
		"Delta pushes rejected for a missing base (409; reporter resyncs).", s.merge.Resyncs())

	// The sharded state and its bounds.
	gauge("pacer_ingest_state_bytes",
		"Accounted collector state memory across all shards.", s.state.Bytes())
	gauge("pacer_ingest_state_bytes_limit",
		"Configured collector state memory bound.", s.state.opts.MaxBytes)
	counter("pacer_ingest_evicted_instances_total",
		"Instances evicted (triage state plus seq/epoch tracking) to hold the memory bound.",
		s.state.Evicted())

	// Snapshot persistence.
	counter("pacer_ingest_snapshots_total",
		"State snapshots persisted (periodic and final).", s.snapshots.Load())
	counter("pacer_ingest_snapshot_errors_total",
		"State snapshot writes that failed after retries.", s.snapshotErrs.Load())
	gauge("pacer_ingest_last_snapshot_unix_seconds",
		"Unix time of the last persisted state snapshot (0 = never).", s.lastSnapshot.Load())

	// Continuity with the original collector's metric names, so fleet
	// dashboards survive the tier swap unchanged.
	counter("pacer_collector_pushes_total",
		"Pushes accepted (including idempotently ignored retries).",
		s.merge.Merged()+s.merge.Stale())
	counter("pacer_collector_push_errors_total",
		"Pushes rejected (bad schema, bad payload).", s.decode.Rejected())
	counter("pacer_collector_unauthorized_total",
		"Pushes rejected for a missing or wrong bearer token.", s.auth.Unauthorized())
	counter("pacer_collector_stale_pushes_total",
		"Pushes acknowledged without effect (sequence not newer).", s.merge.Stale())
	counter("pacer_collector_instances_expired_total",
		"Instances dropped after going unseen for longer than the retention TTL.",
		s.state.Expired())
	gauge("pacer_collector_instances", "Instances with a snapshot on file.", int64(len(rows)))
	gauge("pacer_collector_merge_failing",
		"1 when the fleet-wide merge errors (collector-side state corruption; /races is returning 500), else 0.",
		int64(mergeFailing))
	fmt.Fprintf(w, "# HELP pacer_collector_distinct_races Distinct races in the merged fleet view. Absent while the merge is failing, so dashboards never read a broken merge as zero races.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_distinct_races gauge\n")
	if mergeFailing == 0 {
		fmt.Fprintf(w, "pacer_collector_distinct_races %d\n", distinct)
	}
	fmt.Fprintf(w, "# HELP pacer_collector_instance_last_seen_timestamp_seconds Unix time of each instance's last push.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_instance_last_seen_timestamp_seconds gauge\n")
	for _, row := range rows {
		fmt.Fprintf(w, "pacer_collector_instance_last_seen_timestamp_seconds{instance=%q} %d\n",
			row.Name, row.LastSeen.Unix())
	}
	fmt.Fprintf(w, "# HELP pacer_collector_reporter_dropped_total Snapshots each instance's bounded queue evicted.\n")
	fmt.Fprintf(w, "# TYPE pacer_collector_reporter_dropped_total counter\n")
	for _, row := range rows {
		fmt.Fprintf(w, "pacer_collector_reporter_dropped_total{instance=%q} %d\n", row.Name, row.Dropped)
	}

	// Shadow-map resolution, per instrumented instance.
	shadowMetrics := []struct {
		name, typ, help string
		get             func(*fleet.ShadowGauges) uint64
	}{
		{"pacer_shadow_hits_total", "counter", "Lock-free shadow-map lookups that needed no new identifier, including dismissals of unclaimed addresses outside sampling periods.",
			func(s *fleet.ShadowGauges) uint64 { return s.Hits }},
		{"pacer_shadow_misses_total", "counter", "First-sight address registrations (fresh VarID allocated).",
			func(s *fleet.ShadowGauges) uint64 { return s.Misses }},
		{"pacer_shadow_evicts_total", "counter", "Explicit evictions of freed addresses.",
			func(s *fleet.ShadowGauges) uint64 { return s.Evicts }},
		{"pacer_shadow_vars", "gauge", "Addresses currently mapped to variable identifiers.",
			func(s *fleet.ShadowGauges) uint64 { return s.Vars }},
	}
	for _, m := range shadowMetrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, row := range rows {
			if row.Shadow != nil {
				fmt.Fprintf(w, "%s{instance=%q} %d\n", m.name, row.Name, m.get(row.Shadow))
			}
		}
	}
}
