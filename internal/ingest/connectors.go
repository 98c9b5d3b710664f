package ingest

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
)

// Queue is the load-shed stage that wraps the merge: a bounded queue
// drained by a fixed worker pool. A push arriving at a full queue is shed immediately
// (503, counted) instead of piling up — reporters retry with backoff,
// so shedding under overload trades latency for bounded memory, never
// data (cumulative snapshots and resync-healed deltas both survive a
// shed). Close stops the workers and fails anything still waiting.
type Queue struct {
	next    Stage
	ch      chan queued
	stop    chan struct{}
	wg      sync.WaitGroup
	shed    atomic.Uint64
	stopped sync.Once
}

type queued struct {
	ctx  context.Context
	req  *Request
	done chan error
}

// NewQueue starts workers goroutines draining a depth-bounded queue
// into next. depth <= 0 means 256; workers <= 0 means 4.
func NewQueue(next Stage, depth, workers int) *Queue {
	if depth <= 0 {
		depth = 256
	}
	if workers <= 0 {
		workers = 4
	}
	q := &Queue{next: next, ch: make(chan queued, depth), stop: make(chan struct{})}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

func (q *Queue) Name() string { return "shed(" + q.next.Name() + ")" }

// Shed counts pushes dropped at a full queue.
func (q *Queue) Shed() uint64 { return q.shed.Load() }

// Depth reports how many pushes are queued right now.
func (q *Queue) Depth() int { return len(q.ch) }

func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			return
		case item := <-q.ch:
			item.done <- q.next.Process(item.ctx, item.req)
		}
	}
}

func (q *Queue) Process(ctx context.Context, req *Request) error {
	item := queued{ctx: ctx, req: req, done: make(chan error, 1)}
	select {
	case q.ch <- item:
	default:
		q.shed.Add(1)
		return &StatusError{Status: http.StatusServiceUnavailable, Err: errShed}
	}
	select {
	case err := <-item.done:
		return err
	case <-ctx.Done():
		// The worker may still complete the merge (harmless — it is
		// idempotent), but this caller is gone.
		return &StatusError{Status: http.StatusServiceUnavailable, Err: ctx.Err()}
	case <-q.stop:
		return &StatusError{Status: http.StatusServiceUnavailable, Err: errShuttingDown}
	}
}

// Close stops the worker pool. Requests still queued get errShuttingDown
// through their waiters' stop-channel select; in pacerd the HTTP server
// has already drained by the time the queue closes.
func (q *Queue) Close() {
	q.stopped.Do(func() { close(q.stop) })
	q.wg.Wait()
}

var (
	errShed         = Errf(http.StatusServiceUnavailable, "ingest: queue full, push shed").Err
	errShuttingDown = Errf(http.StatusServiceUnavailable, "ingest: shutting down").Err
)
