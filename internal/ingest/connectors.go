package ingest

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
)

// Queue is the load-shed stage that wraps the merge. It admits at most
// depth+workers pushes at once and runs at most workers merges at once;
// an admitted push waits for a run slot, then merges on the caller's
// (the HTTP handler's) goroutine, so a push is never handed to another
// goroutine. A push arriving with depth+workers already admitted is
// shed immediately (503, counted) instead of piling up — reporters retry
// with backoff, so shedding under overload trades latency for bounded
// memory, never data (cumulative snapshots and resync-healed deltas both
// survive a shed). A push whose context ends while it waits is answered
// 503 and never merged. Close refuses new merges and waits for the
// running ones.
type Queue struct {
	next    Stage
	admit   chan struct{} // one token per admitted push, waiting or merging
	run     chan struct{} // one token per running merge
	waiting atomic.Int64
	stop    chan struct{}
	shed    atomic.Uint64
	closing sync.Once
}

// NewQueue bounds next to workers concurrent merges with depth more
// pushes waiting for one. depth <= 0 means 256; workers <= 0 means 4.
func NewQueue(next Stage, depth, workers int) *Queue {
	if depth <= 0 {
		depth = 256
	}
	if workers <= 0 {
		workers = 4
	}
	return &Queue{
		next:  next,
		admit: make(chan struct{}, depth+workers),
		run:   make(chan struct{}, workers),
		stop:  make(chan struct{}),
	}
}

func (q *Queue) Name() string { return "shed(" + q.next.Name() + ")" }

// Shed counts pushes dropped at a full queue.
func (q *Queue) Shed() uint64 { return q.shed.Load() }

// Depth reports how many admitted pushes are waiting to merge right now
// (not the ones merging).
func (q *Queue) Depth() int { return int(q.waiting.Load()) }

func (q *Queue) Process(ctx context.Context, req *Request) error {
	select {
	case q.admit <- struct{}{}:
	default:
		q.shed.Add(1)
		return &StatusError{Status: http.StatusServiceUnavailable, Err: errShed}
	}
	defer func() { <-q.admit }()
	if err := q.acquire(ctx); err != nil {
		return err
	}
	defer func() { <-q.run }()
	return q.next.Process(ctx, req)
}

// acquire takes a run slot, waiting for one when every slot is taken.
func (q *Queue) acquire(ctx context.Context) error {
	select {
	case q.run <- struct{}{}:
		return nil
	default:
	}
	q.waiting.Add(1)
	defer q.waiting.Add(-1)
	select {
	case q.run <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &StatusError{Status: http.StatusServiceUnavailable, Err: ctx.Err()}
	case <-q.stop:
		return &StatusError{Status: http.StatusServiceUnavailable, Err: errShuttingDown}
	}
}

// Close refuses new merges and waits for the running ones: it takes every
// run slot and keeps them. Pushes still waiting, and any that arrive once
// it returns, get errShuttingDown; in pacerd the HTTP server has already
// drained by the time the queue closes.
func (q *Queue) Close() {
	q.closing.Do(func() {
		close(q.stop)
		for i := 0; i < cap(q.run); i++ {
			q.run <- struct{}{}
		}
	})
}

var (
	errShed         = Errf(http.StatusServiceUnavailable, "ingest: queue full, push shed").Err
	errShuttingDown = Errf(http.StatusServiceUnavailable, "ingest: shutting down").Err
)
