package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"pacer/internal/fleet"
)

// fakeClock is a concurrency-safe manual clock for limiter and TTL
// tests.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(1_700_000_000_000_000_000)
	return c
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// entryFor builds one valid triage row.
func entryFor(v, site uint32, count int, instance string) fleet.TriageEntry {
	return fleet.TriageEntry{
		Var: v, Kind: "write-write",
		FirstSite: site, SecondSite: site + 1,
		FirstThread: 1, SecondThread: 2,
		Count: count, Instances: 1, FirstInstance: instance,
	}
}

// pushFor assembles a decoded Push plus its materialized entries, as the
// Decode stage would produce them.
func pushFor(instance string, epoch, seq, baseSeq uint64, rows ...fleet.TriageEntry) (*fleet.Push, map[fleet.TriageKey]fleet.TriageEntry) {
	blob, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	ver := fleet.SchemaVersion
	if baseSeq != 0 {
		ver = fleet.SchemaVersionDelta
	}
	p := &fleet.Push{Version: ver, Instance: instance, Epoch: epoch, Seq: seq, BaseSeq: baseSeq, Races: blob}
	entries, err := fleet.ParseTriage(blob)
	if err != nil {
		panic(err)
	}
	return p, entries
}

// TestIngestQueueSheds drives the load-shed stage to its bound:
// with every worker blocked and the queue full, the next push is shed
// immediately (503, counted); unblocking drains everything.
func TestIngestQueueSheds(t *testing.T) {
	gate := make(chan struct{})
	var entered, processed atomic.Int64
	slow := StageFunc{StageName: "gated", Fn: func(ctx context.Context, _ *Request) error {
		entered.Add(1)
		<-gate
		processed.Add(1)
		return nil
	}}
	const depth, workers = 4, 2
	q := NewQueue(slow, depth, workers)
	defer q.Close()

	ctx := context.Background()
	results := make(chan error, depth+workers)
	deadline := time.Now().Add(5 * time.Second)
	// First occupy every worker, then fill the queue behind them — staged,
	// so none of these six can race each other into a shed.
	for i := 0; i < workers; i++ {
		go func() { results <- q.Process(ctx, &Request{}) }()
	}
	for entered.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("workers never picked up: %d entered", entered.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < depth; i++ {
		go func() { results <- q.Process(ctx, &Request{}) }()
	}
	for q.Depth() < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", q.Depth())
		}
		time.Sleep(time.Millisecond)
	}

	err := q.Process(ctx, &Request{})
	if StatusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("full queue answered %v, want 503 shed", err)
	}
	if q.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", q.Shed())
	}

	close(gate)
	for i := 0; i < depth+workers; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued push failed after unblock: %v", err)
		}
	}
	if got := processed.Load(); got != depth+workers {
		t.Fatalf("processed %d pushes, want %d", got, depth+workers)
	}
}

// gatedStage is an inner stage that counts the pushes reaching it and
// holds each until gate closes.
func gatedStage(gate chan struct{}, entered *atomic.Int64) Stage {
	return StageFunc{StageName: "gated", Fn: func(context.Context, *Request) error {
		entered.Add(1)
		<-gate
		return nil
	}}
}

// TestIngestQueueAdmission pins what the queue does with a push it has
// admitted: Depth counts only the pushes waiting for a run slot, and a
// waiting push whose context is cancelled is answered 503 without ever
// reaching the inner stage.
func TestIngestQueueAdmission(t *testing.T) {
	gate := make(chan struct{})
	var entered atomic.Int64
	q := NewQueue(gatedStage(gate, &entered), 2, 1)
	defer q.Close()

	running := make(chan error, 1)
	go func() { running <- q.Process(context.Background(), &Request{}) }()
	waitFor(t, "the first push to reach the stage", func() bool { return entered.Load() == 1 })
	if d := q.Depth(); d != 0 {
		t.Fatalf("Depth() = %d with one push merging and none waiting, want 0", d)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() { waiter <- q.Process(ctx, &Request{}) }()
	waitFor(t, "the second push to wait", func() bool { return q.Depth() == 1 })
	cancel()
	err := <-waiter
	if StatusOf(err) != http.StatusServiceUnavailable || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter answered %v, want 503 carrying context.Canceled", err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("Depth() = %d after the waiter left, want 0", d)
	}

	close(gate)
	if err := <-running; err != nil {
		t.Fatalf("running push failed: %v", err)
	}
	if got := entered.Load(); got != 1 {
		t.Fatalf("%d pushes reached the stage, want 1 (the cancelled one must not)", got)
	}
	// Both of the waiter's slots came back: the queue admits and runs again.
	if err := q.Process(context.Background(), &Request{}); err != nil {
		t.Fatalf("push after the cancellation: %v", err)
	}
	if q.Shed() != 0 {
		t.Fatalf("Shed() = %d, want 0", q.Shed())
	}
}

// TestIngestQueueCloseWaitsForRunning: Close returns only after the
// running merge has, a push waiting at Close and every push after it get
// errShuttingDown, and neither reaches the inner stage.
func TestIngestQueueCloseWaitsForRunning(t *testing.T) {
	gate := make(chan struct{})
	var entered atomic.Int64
	q := NewQueue(gatedStage(gate, &entered), 2, 1)

	running := make(chan error, 1)
	go func() { running <- q.Process(context.Background(), &Request{}) }()
	waitFor(t, "the first push to reach the stage", func() bool { return entered.Load() == 1 })
	waiter := make(chan error, 1)
	go func() { waiter <- q.Process(context.Background(), &Request{}) }()
	waitFor(t, "the second push to wait", func() bool { return q.Depth() == 1 })

	var closed atomic.Bool
	closeDone := make(chan struct{})
	go func() {
		q.Close()
		closed.Store(true)
		close(closeDone)
	}()
	if err := <-waiter; StatusOf(err) != http.StatusServiceUnavailable || !errors.Is(err, errShuttingDown) {
		t.Fatalf("push waiting at Close answered %v, want 503 errShuttingDown", err)
	}
	time.Sleep(20 * time.Millisecond)
	if closed.Load() {
		t.Fatal("Close returned while a merge was still running")
	}
	close(gate)
	<-closeDone
	if err := <-running; err != nil {
		t.Fatalf("running push failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := q.Process(context.Background(), &Request{}); StatusOf(err) != http.StatusServiceUnavailable || !errors.Is(err, errShuttingDown) {
			t.Fatalf("push after Close answered %v, want 503 errShuttingDown", err)
		}
	}
	if got := entered.Load(); got != 1 {
		t.Fatalf("%d pushes reached the stage, want 1", got)
	}
	q.Close() // idempotent
}

// TestIngestRateLimitPerInstance: one instance exhausting its burst is
// limited without touching another instance's budget, and the bucket
// refills with time.
func TestIngestRateLimitPerInstance(t *testing.T) {
	clock := newFakeClock()
	l := &RateLimit{Rate: 1, Burst: 3, Clock: clock.Now}
	ctx := context.Background()
	push := func(instance string) error {
		p, entries := pushFor(instance, 1, 1, 0, entryFor(1, 10, 1, instance))
		return l.Process(ctx, &Request{Push: p, Entries: entries})
	}
	for i := 0; i < 3; i++ {
		if err := push("hot"); err != nil {
			t.Fatalf("push %d within burst limited: %v", i, err)
		}
	}
	if err := push("hot"); StatusOf(err) != http.StatusTooManyRequests {
		t.Fatalf("burst exceeded but got %v, want 429", err)
	}
	if l.Limited() != 1 {
		t.Fatalf("Limited() = %d, want 1", l.Limited())
	}
	if err := push("cool"); err != nil {
		t.Fatalf("other instance was limited by hot's bucket: %v", err)
	}
	clock.Advance(2 * time.Second) // refills 2 tokens at rate 1/s
	if err := push("hot"); err != nil {
		t.Fatalf("bucket did not refill: %v", err)
	}
}

// TestIngestRateLimitBucketBound: the limiter map cannot outgrow its
// bound under instance churn; refilled buckets are pruned first.
func TestIngestRateLimitBucketBound(t *testing.T) {
	clock := newFakeClock()
	l := &RateLimit{Rate: 100, Burst: 5, MaxBuckets: 64, Clock: clock.Now}
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		name := "churn-" + string(rune('a'+i%26)) + "-" + itoa(i)
		p, entries := pushFor(name, 1, 1, 0, entryFor(1, 10, 1, name))
		if err := l.Process(ctx, &Request{Push: p, Entries: entries}); err != nil {
			t.Fatalf("churning push %d limited: %v", i, err)
		}
		clock.Advance(100 * time.Millisecond)
	}
	if got := l.Buckets(); got > 64 {
		t.Fatalf("bucket map grew to %d entries, bound is 64", got)
	}
	if l.Pruned() == 0 {
		t.Fatal("churn never pruned a bucket")
	}
}

func itoa(n int) string {
	return string(rune('0'+n/100%10)) + string(rune('0'+n/10%10)) + string(rune('0'+n%10))
}

// TestIngestDecodeRejects pins the decode stage's validation: garbage,
// unknown versions, deltas misframed as v1, and bases at or past the
// push's own seq are all 400s, and counted.
func TestIngestDecodeRejects(t *testing.T) {
	d := &Decode{MaxDecompressed: 1 << 20}
	ctx := context.Background()

	run := func(p *fleet.Push) error {
		var buf bytes.Buffer
		if err := fleet.EncodePush(&buf, p); err != nil {
			t.Fatal(err)
		}
		return d.Process(ctx, &Request{Body: &buf})
	}
	ok, _ := pushFor("i", 1, 1, 0, entryFor(1, 10, 1, "i"))
	if err := run(ok); err != nil {
		t.Fatalf("valid push rejected: %v", err)
	}
	if d.Decoded() != 1 {
		t.Fatalf("Decoded() = %d, want 1", d.Decoded())
	}

	cases := []*fleet.Push{
		{Version: 3, Instance: "i", Seq: 1, Races: ok.Races},                             // unknown version
		{Version: 1, Instance: "i", Seq: 2, BaseSeq: 1, Races: ok.Races},                 // delta framed as v1
		{Version: 2, Instance: "i", Seq: 2, BaseSeq: 2, Races: ok.Races},                 // base not before seq
		{Version: 1, Instance: "", Seq: 1, Races: ok.Races},                              // no instance
		{Version: 1, Instance: "i", Seq: 1, Races: json.RawMessage(`[{"kind":"nope"}]`)}, // bad payload
	}
	for i, p := range cases {
		if err := run(p); StatusOf(err) != http.StatusBadRequest {
			t.Errorf("case %d: got %v, want 400", i, err)
		}
	}
	if err := d.Process(ctx, &Request{Body: bytes.NewReader([]byte("not gzip"))}); StatusOf(err) != http.StatusBadRequest {
		t.Error("raw garbage should 400")
	}
	if d.Rejected() != uint64(len(cases)+1) {
		t.Fatalf("Rejected() = %d, want %d", d.Rejected(), len(cases)+1)
	}
}

// TestIngestPipelineOrder: a pipeline stops at the first failing stage.
func TestIngestPipelineOrder(t *testing.T) {
	var ran []string
	mk := func(name string, fail bool) Stage {
		return StageFunc{StageName: name, Fn: func(context.Context, *Request) error {
			ran = append(ran, name)
			if fail {
				return Errf(http.StatusBadRequest, "%s failed", name)
			}
			return nil
		}}
	}
	p := NewPipeline(mk("a", false), mk("b", true), mk("c", false))
	if err := p.Process(context.Background(), &Request{}); err == nil {
		t.Fatal("pipeline should surface stage b's failure")
	}
	if len(ran) != 2 || ran[0] != "a" || ran[1] != "b" {
		t.Fatalf("stages ran %v, want [a b]", ran)
	}
}
