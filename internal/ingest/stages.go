package ingest

import (
	"context"
	"crypto/subtle"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacer/internal/fleet"
)

// Decode inflates the push and parses its envelope (schema versions 1 and
// 2) and triage payload in one pass (fleet.DecodePush), so every later
// stage works with typed, bounds-checked data and a malformed push is
// rejected before it can touch shared state.
type Decode struct {
	// MaxDecompressed bounds one push after gzip inflation (the
	// compressed body is bounded by the transport's MaxBytesReader).
	MaxDecompressed int64

	decoded  atomic.Uint64
	rejected atomic.Uint64
}

func (d *Decode) Name() string { return "decode" }

// Decoded counts pushes that parsed and validated.
func (d *Decode) Decoded() uint64 { return d.decoded.Load() }

// Rejected counts pushes dropped as malformed (gzip, schema, payload).
func (d *Decode) Rejected() uint64 { return d.rejected.Load() }

func (d *Decode) Process(_ context.Context, req *Request) error {
	p, entries, err := fleet.DecodePush(req.Body, d.MaxDecompressed)
	if err != nil {
		d.rejected.Add(1)
		return &StatusError{Status: http.StatusBadRequest, Err: err}
	}
	req.Push, req.Entries = p, entries
	d.decoded.Add(1)
	return nil
}

// Auth checks the bearer token. It is the first stage and reads only
// headers, so an unauthenticated push is rejected before its body is
// inflated. With no token configured it is a pass-through, so the
// pipeline shape is identical in open and authenticated deployments.
type Auth struct {
	Token string

	unauthorized atomic.Uint64
}

func (a *Auth) Name() string { return "authenticate" }

// Unauthorized counts pushes rejected for a missing or wrong token.
func (a *Auth) Unauthorized() uint64 { return a.unauthorized.Load() }

func (a *Auth) Process(_ context.Context, req *Request) error {
	if a.Token == "" {
		return nil
	}
	const prefix = "Bearer "
	h := req.Header.Get("Authorization")
	if strings.HasPrefix(h, prefix) &&
		subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(a.Token)) == 1 {
		return nil
	}
	a.unauthorized.Add(1)
	return &StatusError{Status: http.StatusUnauthorized, Err: errBadToken}
}

var errBadToken = Errf(http.StatusUnauthorized, "ingest: push requires a valid bearer token").Err

// RateLimit is a per-instance token bucket: each instance may push at
// Rate per second with bursts up to Burst, so one misconfigured
// reporter stuck in a tight push loop cannot starve the rest of the
// fleet. The bucket map is bounded: when it outgrows MaxBuckets, fully
// refilled buckets are pruned first — a bucket idle long enough to
// refill completely behaves exactly like a fresh one, so dropping it is
// semantically free — and only then arbitrary entries, so a churning
// fleet cannot grow the limiter without bound either.
type RateLimit struct {
	Rate       float64 // tokens (pushes) per second; <= 0 disables the stage
	Burst      float64 // bucket capacity; < 1 means max(2*Rate, 1)
	MaxBuckets int     // bucket-map bound; <= 0 means 65536
	Clock      func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket

	limited atomic.Uint64
	pruned  atomic.Uint64
}

type bucket struct {
	tokens float64
	last   time.Time
}

func (l *RateLimit) Name() string { return "rate-limit" }

// Limited counts pushes rejected with 429.
func (l *RateLimit) Limited() uint64 { return l.limited.Load() }

// Pruned counts bucket-map entries evicted to hold the map bound.
func (l *RateLimit) Pruned() uint64 { return l.pruned.Load() }

// Buckets reports the live bucket count (metrics, tests).
func (l *RateLimit) Buckets() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

func (l *RateLimit) Process(_ context.Context, req *Request) error {
	if l.Rate <= 0 {
		return nil
	}
	burst := l.Burst
	if burst < 1 {
		burst = l.Rate * 2
		if burst < 1 {
			burst = 1
		}
	}
	maxBuckets := l.MaxBuckets
	if maxBuckets <= 0 {
		maxBuckets = 65536
	}
	clock := l.Clock
	if clock == nil {
		clock = time.Now
	}
	now := clock()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buckets == nil {
		l.buckets = make(map[string]*bucket)
	}
	b := l.buckets[req.Push.Instance]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.pruneLocked(now, burst, maxBuckets)
		}
		b = &bucket{tokens: burst, last: now}
		l.buckets[req.Push.Instance] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.Rate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens < 1 {
		l.limited.Add(1)
		return &StatusError{Status: http.StatusTooManyRequests, Err: errRateLimited}
	}
	b.tokens--
	return nil
}

// pruneLocked holds the bucket map at its bound: first every fully
// refilled (= indistinguishable from absent) bucket goes, then — only
// if the map is still full — arbitrary entries make room for the one
// being inserted.
func (l *RateLimit) pruneLocked(now time.Time, burst float64, maxBuckets int) {
	for name, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.Rate >= burst {
			delete(l.buckets, name)
			l.pruned.Add(1)
		}
	}
	for name := range l.buckets {
		if len(l.buckets) < maxBuckets {
			break
		}
		delete(l.buckets, name)
		l.pruned.Add(1)
	}
}

var errRateLimited = Errf(http.StatusTooManyRequests, "ingest: instance push rate exceeded").Err

// Merge is the terminal stage: apply the decoded push to the sharded
// state. Its outcomes mirror the protocol — applied (counted), stale
// (acknowledged without effect), or resync (409: the delta's base is
// not the state we hold).
type Merge struct {
	State *State

	merged  atomic.Uint64
	stale   atomic.Uint64
	resyncs atomic.Uint64
}

func (m *Merge) Name() string { return "merge" }

// Merged counts pushes applied to the state.
func (m *Merge) Merged() uint64 { return m.merged.Load() }

// Stale counts pushes acknowledged without effect.
func (m *Merge) Stale() uint64 { return m.stale.Load() }

// Resyncs counts delta pushes rejected for a missing base.
func (m *Merge) Resyncs() uint64 { return m.resyncs.Load() }

func (m *Merge) Process(_ context.Context, req *Request) error {
	switch m.State.Apply(req.Push, req.Entries) {
	case ApplyMerged:
		m.merged.Add(1)
		return nil
	case ApplyStale:
		m.stale.Add(1)
		req.Stale = true
		return nil
	default: // ApplyResync
		m.resyncs.Add(1)
		return &StatusError{Status: http.StatusConflict, Err: errNeedResync}
	}
}

var errNeedResync = Errf(http.StatusConflict,
	"ingest: delta base unknown here; push a full cumulative snapshot").Err
