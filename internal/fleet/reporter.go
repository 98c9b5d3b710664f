package fleet

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pacer"
)

// newEpoch draws the reporter's per-process boot ID. It is deliberately
// independent of ReporterOptions.Seed: a restarted process runs with the
// same configuration, and the epoch is the one thing that must differ
// across restarts (see Push.Epoch). Always nonzero, so a zero epoch on
// the wire unambiguously means a pre-epoch reporter.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint64(b[:]) | 1
	}
	return uint64(time.Now().UnixNano()) | 1
}

// ReporterOptions configure a Reporter. Only Collector and Instance are
// required.
type ReporterOptions struct {
	// Collector is the collector's base URL, e.g. "http://races:9120".
	Collector string
	// Instance uniquely names this instance fleet-wide (hostname + pid is
	// a reasonable choice). Two live instances sharing a name overwrite
	// each other's snapshots at the collector. A restarted process may
	// safely reuse its predecessor's name: each reporter stamps its
	// pushes with a fresh random epoch, so the collector recognizes the
	// restart instead of discarding the new process's low sequence
	// numbers as stale.
	Instance string
	// Interval is how often the aggregator is snapshotted and pushed.
	// Default 15s. Snapshots identical to the last acknowledged one are
	// skipped, so an idle instance generates no traffic.
	Interval time.Duration
	// Timeout bounds each push attempt. Default 5s.
	Timeout time.Duration
	// QueueLen bounds the in-memory snapshot queue. When a snapshot
	// arrives at a full queue the oldest is dropped and counted in
	// Stats().Dropped — harmless, since every later snapshot is a
	// superset. Default 4.
	QueueLen int
	// MinBackoff and MaxBackoff bound the exponential retry backoff after
	// a failed push; the actual sleep is jittered uniformly over
	// [backoff/2, backoff]. Defaults 500ms and 30s.
	MinBackoff, MaxBackoff time.Duration
	// AuthToken, when non-empty, is sent with every push as
	// "Authorization: Bearer <token>" — set it to the token the collector
	// runs with (pacerd -auth-token). A mismatch surfaces through OnError
	// as a 401 on every push attempt.
	AuthToken string
	// Stats, when non-nil, is sampled at every snapshot and its shadow-map
	// accounting (Stats.FrontDoor and friends) rides along on the push,
	// so the collector's /metrics can export per-instance shadow gauges.
	// Wire it to the detector's Stats method. Optional.
	Stats func() pacer.Stats
	// Client issues the pushes; replace it (or its Transport) to add TLS
	// configuration, or to inject faults in tests. Default: a dedicated
	// http.Client.
	Client *http.Client
	// OnError observes push failures (for logging). It runs on the
	// reporter's goroutine; keep it fast. Optional.
	OnError func(error)
	// Seed makes the backoff jitter deterministic in tests; 0 seeds from
	// the clock.
	Seed int64
}

// ReporterStats count a reporter's work so far.
type ReporterStats struct {
	// Snapshots is the number of snapshots taken (including skipped-as-
	// unchanged ones, which are not queued).
	Snapshots uint64
	// Pushes is the number of snapshots acknowledged by the collector.
	Pushes uint64
	// FullPushes counts the acknowledged pushes that carried a complete
	// cumulative triage list (every push against a version-1 collector;
	// the initial and post-resync pushes against a delta-capable one).
	FullPushes uint64
	// DeltaPushes counts the acknowledged pushes that carried only the
	// triage entries changed since the previous snapshot.
	DeltaPushes uint64
	// Resyncs counts the times a collector rejected a delta base (409)
	// and the reporter fell back to a full cumulative snapshot.
	Resyncs uint64
	// Failures is the number of failed push attempts.
	Failures uint64
	// Dropped is the number of snapshots the bounded queue evicted.
	Dropped uint64
}

// Reporter periodically ships an Aggregator's triage list to a collector.
// It owns one background goroutine; the detection hot path never blocks
// on it — races land in the in-memory aggregator, and a collector outage
// costs at most QueueLen retained snapshots.
//
// A reporter starts with cumulative snapshots and switches to delta
// pushes (only the triage entries changed since the last queued
// snapshot) once a push ack carries the collector's ProtocolHeader. A
// collector that loses the delta base (restart from an older state
// snapshot, eviction) answers 409, and the reporter resynchronizes with
// a full cumulative snapshot.
type Reporter struct {
	agg    *pacer.Aggregator
	opts   ReporterOptions
	url    string
	epoch  uint64 // random boot ID, stamped on every push
	client *http.Client
	rng    *rand.Rand // sender goroutine only (then Close, after it exits)

	mu        sync.Mutex
	queue     []*Push // head = oldest
	seq       uint64
	lastAcked []byte                    // races blob of the last acknowledged cumulative snapshot
	deltaOK   bool                      // the collector advertised SchemaVersionDelta on an ack
	forceFull bool                      // next snapshot must be cumulative (post-resync)
	base      map[TriageKey]TriageEntry // triage state as of the last queued snapshot
	baseSeq   uint64                    // its sequence number
	stats     ReporterStats
	closed    bool

	wake chan struct{} // kick the sender (buffered, len 1)
	stop chan struct{}
	done chan struct{}
}

// NewReporter starts a reporter for agg and returns it. Wire the same
// aggregator into the detector (Options.OnRace: agg.Reporter(instance))
// and the instance's races flow to the collector in the background.
func NewReporter(agg *pacer.Aggregator, opts ReporterOptions) (*Reporter, error) {
	if agg == nil {
		return nil, fmt.Errorf("fleet: reporter needs an aggregator")
	}
	if opts.Collector == "" {
		return nil, fmt.Errorf("fleet: reporter needs a collector URL")
	}
	if opts.Instance == "" {
		return nil, fmt.Errorf("fleet: reporter needs an instance name")
	}
	if opts.Interval <= 0 {
		opts.Interval = 15 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.QueueLen <= 0 {
		opts.QueueLen = 4
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 500 * time.Millisecond
	}
	if opts.MaxBackoff < opts.MinBackoff {
		opts.MaxBackoff = 30 * time.Second
		if opts.MaxBackoff < opts.MinBackoff {
			opts.MaxBackoff = opts.MinBackoff
		}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r := &Reporter{
		agg:    agg,
		opts:   opts,
		url:    opts.Collector + PushPath,
		epoch:  newEpoch(),
		client: opts.Client,
		rng:    rand.New(rand.NewSource(seed)),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{}
	}
	go r.run()
	return r, nil
}

// Stats returns a snapshot of the reporter's counters.
func (r *Reporter) Stats() ReporterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Flush snapshots the aggregator now and kicks the sender, without
// waiting for delivery. Close flushes synchronously.
func (r *Reporter) Flush() {
	r.snapshot()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Close stops the background goroutine, takes a final snapshot, and
// synchronously pushes everything still queued until ctx expires. It
// returns nil once the collector holds the final snapshot, or ctx's error
// with the count of unsent snapshots otherwise. Close is idempotent; the
// reporter is unusable afterwards.
func (r *Reporter) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	<-r.done

	r.snapshot()
	backoff := r.opts.MinBackoff
	for {
		p := r.head()
		if p == nil {
			return nil
		}
		if err := r.push(ctx, p); err != nil {
			if errors.Is(err, errResync) && p.BaseSeq != 0 {
				r.resync()
				backoff = r.opts.MinBackoff
				continue
			}
			r.noteFailure(err)
			if ctx.Err() != nil {
				r.mu.Lock()
				n := len(r.queue)
				r.mu.Unlock()
				return fmt.Errorf("fleet: flush abandoned with %d snapshot(s) unsent: %w", n, ctx.Err())
			}
			select {
			case <-ctx.Done():
				// Counted on the next loop iteration's push attempt.
			case <-time.After(r.jitter(backoff)):
			}
			backoff = r.nextBackoff(backoff)
			continue
		}
		r.ack(p)
		backoff = r.opts.MinBackoff
	}
}

// run is the sender goroutine: snapshot on a ticker, drain the queue, and
// on failure retry the head with exponential backoff — without ever
// stopping the ticker, so snapshots keep accumulating (and the bounded
// queue keeps evicting) during a collector outage.
func (r *Reporter) run() {
	defer close(r.done)
	ticker := time.NewTicker(r.opts.Interval)
	defer ticker.Stop()
	backoff := r.opts.MinBackoff
	var retry <-chan time.Time // non-nil while backing off
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.snapshot()
		case <-r.wake:
		case <-retry:
			retry = nil
		}
		if retry != nil {
			continue // still backing off; the tick above only snapshotted
		}
		for {
			p := r.head()
			if p == nil {
				backoff = r.opts.MinBackoff
				break
			}
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.Timeout)
			err := r.push(ctx, p)
			cancel()
			if err != nil {
				if errors.Is(err, errResync) && p.BaseSeq != 0 {
					// The collector no longer holds this delta's base.
					// Drop the now-useless delta chain and queue a fresh
					// cumulative snapshot — no backoff, the collector is
					// healthy and asking for exactly this.
					r.resync()
					backoff = r.opts.MinBackoff
					continue
				}
				r.noteFailure(err)
				retry = time.After(r.jitter(backoff))
				backoff = r.nextBackoff(backoff)
				break
			}
			r.ack(p)
			backoff = r.opts.MinBackoff
		}
	}
}

// snapshot exports the aggregator and queues it, unless it is identical
// to the last acknowledged export. A full queue evicts its oldest entry.
func (r *Reporter) snapshot() {
	races, err := r.agg.MarshalJSON()
	if err != nil { // cannot happen with the flat schema; count, don't wedge
		r.noteFailure(fmt.Errorf("fleet: exporting triage list: %w", err))
		return
	}
	var shadow *ShadowGauges
	if r.opts.Stats != nil { // outside r.mu: the callback reads detector state
		if st := r.opts.Stats(); st.FrontDoor {
			shadow = &ShadowGauges{
				Hits:   st.ShadowHits,
				Misses: st.ShadowMisses,
				Evicts: st.ShadowEvicts,
				Vars:   uint64(st.ShadowVars),
			}
		}
	}
	// Materialize our own export so the next snapshot can diff against
	// it. A parse failure (impossible for our own MarshalJSON output)
	// just degrades this snapshot to cumulative framing.
	entries, _ := ParseTriage(races)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Snapshots++
	if r.deltaOK && !r.forceFull && entries != nil && r.base != nil {
		// Delta mode: queue only what changed since the last queued
		// snapshot. Nothing changed means nothing to say — the queue tail
		// (or the collector) already reflects this exact state.
		changed := DiffTriage(entries, r.base)
		if len(changed) == 0 {
			return
		}
		blob, err := MarshalTriage(changed)
		if err == nil {
			r.seq++
			p := &Push{
				Version:  SchemaVersionDelta,
				Instance: r.opts.Instance,
				Epoch:    r.epoch,
				Seq:      r.seq,
				BaseSeq:  r.baseSeq,
				Dropped:  r.stats.Dropped,
				Races:    blob,
				Shadow:   shadow,
			}
			r.base, r.baseSeq = entries, r.seq
			r.enqueueLocked(p)
			return
		}
	}
	// Cumulative framing: every push against a version-1 collector, plus
	// the initial and post-resync snapshots in delta mode. The unchanged
	// skip must not fire right after a resync — the collector asked for a
	// full snapshot precisely because its state no longer matches ours.
	if bytes.Equal(races, r.lastAcked) && len(r.queue) == 0 && !r.forceFull {
		return
	}
	r.seq++
	ver := SchemaVersion
	if r.deltaOK {
		ver = SchemaVersionDelta
	}
	p := &Push{
		Version:  ver,
		Instance: r.opts.Instance,
		Epoch:    r.epoch,
		Seq:      r.seq,
		Dropped:  r.stats.Dropped,
		Races:    races,
		Shadow:   shadow,
	}
	if entries != nil {
		r.base, r.baseSeq = entries, r.seq
	}
	r.forceFull = false
	r.enqueueLocked(p)
}

// enqueueLocked appends p, evicting the oldest queued push when full.
// Evicting a cumulative push is harmless (every later one is a
// superset); evicting a delta breaks the chain for the pushes behind it,
// which the collector will reject with 409 and resync will heal.
func (r *Reporter) enqueueLocked(p *Push) {
	if len(r.queue) >= r.opts.QueueLen {
		r.queue = r.queue[1:]
		r.stats.Dropped++
	}
	r.queue = append(r.queue, p)
}

// resync abandons the queued delta chain and queues a fresh cumulative
// snapshot — the recovery the collector asks for with 409 when it no
// longer holds a delta's base (a restart restored older state, or the
// instance's entry was evicted). Cumulative pushes are supersets of
// every dropped delta, so nothing is lost.
func (r *Reporter) resync() {
	r.mu.Lock()
	r.stats.Resyncs++
	r.queue = nil
	r.base, r.baseSeq = nil, 0
	r.forceFull = true
	r.mu.Unlock()
	r.snapshot()
}

// head returns the oldest queued push without removing it (a failed
// attempt retries it; eviction may still replace it meanwhile).
func (r *Reporter) head() *Push {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.queue) == 0 {
		return nil
	}
	return r.queue[0]
}

// ack records a successful push and removes p from the queue if still
// present.
func (r *Reporter) ack(p *Push) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Pushes++
	if p.BaseSeq != 0 {
		r.stats.DeltaPushes++
	} else {
		r.stats.FullPushes++
		r.lastAcked = p.Races
	}
	if len(r.queue) > 0 && r.queue[0] == p {
		r.queue = r.queue[1:]
	}
}

func (r *Reporter) noteFailure(err error) {
	r.mu.Lock()
	r.stats.Failures++
	r.mu.Unlock()
	if r.opts.OnError != nil {
		r.opts.OnError(err)
	}
}

// errResync marks a 409 from the collector: it does not hold the delta
// base this push builds on, and wants a full cumulative snapshot.
var errResync = errors.New("fleet: collector requests a full resync")

// push POSTs one snapshot. Any non-2xx status is a failure; the body is
// drained so the connection can be reused. A 2xx ack carrying the
// collector's ProtocolHeader upgrades the reporter to delta pushes.
func (r *Reporter) push(ctx context.Context, p *Push) error {
	var body bytes.Buffer
	if err := EncodePush(&body, p); err != nil {
		return fmt.Errorf("fleet: encoding push: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, &body)
	if err != nil {
		return fmt.Errorf("fleet: building push request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	if r.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+r.opts.AuthToken)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: push seq %d: %w", p.Seq, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode == http.StatusConflict {
		return fmt.Errorf("fleet: push seq %d: %w", p.Seq, errResync)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("fleet: push seq %d: collector said %s", p.Seq, resp.Status)
	}
	if v := resp.Header.Get(ProtocolHeader); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= SchemaVersionDelta {
			r.mu.Lock()
			r.deltaOK = true
			r.mu.Unlock()
		}
	}
	return nil
}

// jitter spreads b uniformly over [b/2, b] so a fleet restarted together
// does not retry in lockstep.
func (r *Reporter) jitter(b time.Duration) time.Duration {
	return b/2 + time.Duration(r.rng.Int63n(int64(b/2)+1))
}

func (r *Reporter) nextBackoff(b time.Duration) time.Duration {
	b *= 2
	if b > r.opts.MaxBackoff {
		b = r.opts.MaxBackoff
	}
	return b
}
