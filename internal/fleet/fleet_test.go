// Fleet transport tests: everything runs over real loopback HTTP
// (httptest) with injected faults, so they are hermetic and safe for the
// quick CI gate under -race.
package fleet_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pacer"
	"pacer/internal/fleet"
	"pacer/internal/ingest"
)

// flakyTransport fails the first failN pushes it sees (connection-level
// errors), recording every attempt's timestamp. Non-push traffic passes
// through untouched.
type flakyTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	failLeft int
	attempts []time.Time
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != fleet.PushPath {
		return f.base.RoundTrip(req)
	}
	f.mu.Lock()
	f.attempts = append(f.attempts, time.Now())
	fail := f.failLeft > 0
	if fail {
		f.failLeft--
	}
	f.mu.Unlock()
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("injected transport fault")
	}
	return f.base.RoundTrip(req)
}

func (f *flakyTransport) snapshot() []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.attempts...)
}

// newCollector serves the ingest tier cmd/pacerd mounts, closed when the
// test ends.
func newCollector(t *testing.T, opts ingest.Options) *ingest.Service {
	t.Helper()
	col, err := ingest.New(opts)
	if err != nil {
		t.Fatalf("collector: %v", err)
	}
	t.Cleanup(func() { col.Close() })
	return col
}

// runInstance drives one detector instance deterministically: an optional
// shared racy pair every instance executes (identical ids everywhere, so
// the reports coincide), plus nuniq unique racy pairs at instance-specific
// sites. Sampling rate 1 makes detection certain, and all detector calls
// are issued from this goroutine, so each instance's reports are fixed.
func runInstance(report func(pacer.Race), uniqBase pacer.SiteID, nuniq int) {
	d := pacer.New(pacer.Options{SamplingRate: 1, Seed: 7, OnRace: report})
	main := d.NewThread()
	a, b := d.Fork(main), d.Fork(main)

	shared := d.NewVarID() // var 0 in every instance
	d.Write(a, shared, 1000)
	d.Read(b, shared, 1001)

	for i := 0; i < nuniq; i++ {
		v := d.NewVarID()
		s := uniqBase + pacer.SiteID(2*i)
		d.Write(a, v, s)
		d.Read(b, v, s+1)
	}
	d.Join(main, a)
	d.Join(main, b)
}

// TestFleetRoundTrip is the end-to-end acceptance test: four detector
// instances (three of them concurrent) report through fleet.Reporters to
// a collector on a loopback listener, with transient failures injected
// both at the transport (per-instance connection errors) and at the
// server (503s), and the merged /races output must be byte-identical to
// the JSON export of a single in-process Aggregator fed the same race
// stream — no loss and no double-counting across retries.
func TestFleetRoundTrip(t *testing.T) {
	col := newCollector(t, ingest.Options{})
	handler := col.Handler()
	var serverFaults atomic.Int64
	serverFaults.Store(2) // the first two pushes to arrive get a 503
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == fleet.PushPath && serverFaults.Add(-1) >= 0 {
			http.Error(w, "injected 503", http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, req)
	}))
	defer srv.Close()

	ref := pacer.NewAggregator() // the in-process ground truth

	instances := []string{"inst-a", "inst-b", "inst-c", "inst-d"}
	run := func(idx int) {
		name := instances[idx]
		local := pacer.NewAggregator()
		flaky := &flakyTransport{base: http.DefaultTransport, failLeft: 2}
		rep, err := fleet.NewReporter(local, fleet.ReporterOptions{
			Collector:  srv.URL,
			Instance:   name,
			Interval:   5 * time.Millisecond,
			Timeout:    2 * time.Second,
			QueueLen:   3,
			MinBackoff: 2 * time.Millisecond,
			MaxBackoff: 20 * time.Millisecond,
			Client:     &http.Client{Transport: flaky},
			Seed:       int64(idx) + 1,
		})
		if err != nil {
			t.Errorf("%s: reporter: %v", name, err)
			return
		}
		runInstance(func(r pacer.Race) {
			local.Reporter(name)(r)
			ref.Reporter(name)(r)
		}, pacer.SiteID(100*(idx+1)), idx+1)

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := rep.Close(ctx); err != nil {
			t.Errorf("%s: flush: %v", name, err)
		}
		st := rep.Stats()
		if st.Pushes == 0 {
			t.Errorf("%s: no push ever succeeded: %+v", name, st)
		}
		if st.Failures < 2 {
			t.Errorf("%s: expected at least the 2 injected transport faults, got %d failures", name, st.Failures)
		}
	}

	// inst-a runs to completion first, so fleet-wide first-seen attribution
	// for the shared race is deterministically inst-a (temporally first in
	// the reference, alphabetically first in the collector's merge order).
	run(0)
	var wg sync.WaitGroup
	for idx := 1; idx < len(instances); idx++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			run(idx)
		}(idx)
	}
	wg.Wait()

	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("exporting reference: %v", err)
	}
	got := httpGet(t, srv.URL+"/races")
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Fatalf("merged /races differs from in-process reference:\n got %s\nwant %s", got, want)
	}

	// Sanity on the reference itself: 1 shared + 1+2+3+4 unique races.
	if n := ref.Distinct(); n != 11 {
		t.Fatalf("reference has %d distinct races, want 11", n)
	}

	if body := string(httpGet(t, srv.URL+"/healthz")); body != "ok\n" {
		t.Errorf("/healthz said %q", body)
	}
	metrics := string(httpGet(t, srv.URL+"/metrics"))
	for _, want := range []string{
		"pacer_collector_instances 4",
		"pacer_collector_distinct_races 11",
		"pacer_collector_merge_failing 0",
		`pacer_collector_instance_last_seen_timestamp_seconds{instance="inst-a"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestFleetReporterCollectorDown pins the degradation story: with the
// collector unreachable the detector's hot path still completes, the
// bounded queue evicts oldest snapshots (counted), retries back off
// exponentially with jitter, and Close gives up at its deadline with an
// error naming the unsent snapshots.
func TestFleetReporterCollectorDown(t *testing.T) {
	local := pacer.NewAggregator()
	flaky := &flakyTransport{base: http.DefaultTransport, failLeft: 1 << 30}
	const minBackoff = 10 * time.Millisecond
	rep, err := fleet.NewReporter(local, fleet.ReporterOptions{
		Collector:  "http://127.0.0.1:0", // nothing listens; transport fails first anyway
		Instance:   "inst-down",
		Interval:   3 * time.Millisecond,
		Timeout:    100 * time.Millisecond,
		QueueLen:   2,
		MinBackoff: minBackoff,
		MaxBackoff: 80 * time.Millisecond,
		Client:     &http.Client{Transport: flaky},
		Seed:       42,
	})
	if err != nil {
		t.Fatalf("reporter: %v", err)
	}

	// Detection proceeds at full speed regardless of the dead collector.
	start := time.Now()
	runInstance(local.Reporter("inst-down"), 100, 3)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("detection took %v with the collector down; the hot path must not block on the network", d)
	}

	// Wait for at least 4 push attempts, then check the gaps against the
	// deterministic lower bounds of exponential backoff with jitter in
	// [b/2, b]: 5ms, 10ms, 20ms. (Scheduling can only lengthen gaps, so
	// lower bounds are safe to assert even on loaded CI machines.)
	deadline := time.Now().Add(10 * time.Second)
	var attempts []time.Time
	for {
		attempts = flaky.snapshot()
		if len(attempts) >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(attempts) < 4 {
		t.Fatalf("only %d push attempts in 10s", len(attempts))
	}
	for i := 1; i < 4; i++ {
		gap := attempts[i].Sub(attempts[i-1])
		lower := (minBackoff << (i - 1)) / 2
		if gap < lower {
			t.Errorf("retry gap %d was %v, below the backoff floor %v", i, gap, lower)
		}
	}

	// Snapshots keep being taken during the outage and the bounded queue
	// evicts the oldest.
	waitFor(t, 10*time.Second, func() bool { return rep.Stats().Dropped > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = rep.Close(ctx)
	if err == nil {
		t.Fatal("Close flushed successfully against a dead collector")
	}
	if !strings.Contains(err.Error(), "unsent") {
		t.Errorf("flush error does not name unsent snapshots: %v", err)
	}
	st := rep.Stats()
	if st.Pushes != 0 || st.Failures == 0 || st.Dropped == 0 {
		t.Errorf("stats after dead-collector run: %+v", st)
	}
}

// TestFleetCollectorIdempotent re-delivers the same snapshot and delivers
// a stale one; neither may change the merged view.
func TestFleetCollectorIdempotent(t *testing.T) {
	col := newCollector(t, ingest.Options{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	agg := pacer.NewAggregator()
	agg.Reporter("inst-x")(pacer.Race{Var: 1, Kind: pacer.WriteRead, FirstSite: 10, SecondSite: 11})
	agg.Reporter("inst-x")(pacer.Race{Var: 2, Kind: pacer.WriteRead, FirstSite: 20, SecondSite: 21})
	full, _ := json.Marshal(agg)

	older := pacer.NewAggregator()
	older.Reporter("inst-x")(pacer.Race{Var: 1, Kind: pacer.WriteRead, FirstSite: 10, SecondSite: 11})
	partial, _ := json.Marshal(older)

	push := func(seq uint64, races []byte) int {
		t.Helper()
		var body bytes.Buffer
		err := fleet.EncodePush(&body, &fleet.Push{
			Version: fleet.SchemaVersion, Instance: "inst-x", Seq: seq, Races: races,
		})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		resp, err := http.Post(srv.URL+fleet.PushPath, "application/json", &body)
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if code := push(2, full); code != http.StatusNoContent {
		t.Fatalf("first push: status %d", code)
	}
	merged := httpGet(t, srv.URL+"/races")
	if code := push(2, full); code != http.StatusNoContent {
		t.Fatalf("duplicate push not acknowledged: status %d", code)
	}
	if code := push(1, partial); code != http.StatusNoContent {
		t.Fatalf("stale push not acknowledged: status %d", code)
	}
	if again := httpGet(t, srv.URL+"/races"); !bytes.Equal(again, merged) {
		t.Errorf("re-delivery changed the merged view:\n was %s\n now %s", merged, again)
	}
	if !strings.Contains(string(httpGet(t, srv.URL+"/metrics")), "pacer_collector_stale_pushes_total 2") {
		t.Errorf("stale pushes not counted")
	}

	// A newer sequence replaces, never accumulates: pushing the same races
	// under seq 3 leaves counts unchanged.
	if code := push(3, full); code != http.StatusNoContent {
		t.Fatalf("newer push: status %d", code)
	}
	if again := httpGet(t, srv.URL+"/races"); !bytes.Equal(again, merged) {
		t.Errorf("cumulative re-push double-counted:\n was %s\n now %s", merged, again)
	}
}

// TestFleetCollectorEpochRestart pins the restart semantics: a push in a
// new epoch is fresh state however small its seq (a restarted process
// reusing its instance name restarts its numbering at 1), while within
// one epoch the stale-seq dedup still holds.
func TestFleetCollectorEpochRestart(t *testing.T) {
	col := newCollector(t, ingest.Options{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	old := pacer.NewAggregator()
	old.Reporter("inst-x")(pacer.Race{Var: 1, Kind: pacer.WriteRead, FirstSite: 10, SecondSite: 11})
	oldRaces, _ := json.Marshal(old)
	fresh := pacer.NewAggregator()
	fresh.Reporter("inst-x")(pacer.Race{Var: 2, Kind: pacer.WriteRead, FirstSite: 20, SecondSite: 21})
	freshRaces, _ := json.Marshal(fresh)

	push := func(epoch, seq uint64, races []byte) {
		t.Helper()
		var body bytes.Buffer
		err := fleet.EncodePush(&body, &fleet.Push{
			Version: fleet.SchemaVersion, Instance: "inst-x", Epoch: epoch, Seq: seq, Races: races,
		})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		resp, err := http.Post(srv.URL+fleet.PushPath, "application/json", &body)
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("push epoch %d seq %d: status %d", epoch, seq, resp.StatusCode)
		}
	}

	// The dead process got as far as seq 7 in epoch 1000.
	push(1000, 7, oldRaces)
	// Its replacement starts over at seq 1 in epoch 2000; the collector
	// must take the new snapshot, not discard it as stale.
	push(2000, 1, freshRaces)
	want, _ := json.Marshal(fresh)
	if got := bytes.TrimSpace(httpGet(t, srv.URL+"/races")); !bytes.Equal(got, want) {
		t.Fatalf("restarted instance's snapshot dropped as stale:\n got %s\nwant %s", got, want)
	}
	// Within the new epoch the usual dedup applies: a re-delivered seq-1
	// snapshot carrying the old races must not regress the state.
	push(2000, 1, oldRaces)
	if got := bytes.TrimSpace(httpGet(t, srv.URL+"/races")); !bytes.Equal(got, want) {
		t.Errorf("same-epoch stale push changed the merged view: %s", got)
	}
}

// TestFleetReporterRestartSameInstance is the scenario from the field: a
// containerized process (hostname+pid names collapse — pid is always 1)
// dies after reporting, restarts under the same instance name, and finds
// new races. Its reports must reach the collector even though its seq
// numbering restarted below the dead process's.
func TestFleetReporterRestartSameInstance(t *testing.T) {
	col := newCollector(t, ingest.Options{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	report := func(v pacer.VarID) {
		t.Helper()
		agg := pacer.NewAggregator()
		rep, err := fleet.NewReporter(agg, fleet.ReporterOptions{
			Collector: srv.URL,
			Instance:  "app-1", // both lives of the process share this name
			Interval:  time.Hour,
			Timeout:   2 * time.Second,
			Seed:      9,
		})
		if err != nil {
			t.Fatalf("reporter: %v", err)
		}
		agg.Reporter("app-1")(pacer.Race{Var: v, Kind: pacer.WriteRead,
			FirstSite: pacer.SiteID(10 * v), SecondSite: pacer.SiteID(10*v + 1)})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rep.Close(ctx); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}

	report(1) // first life: pushes var-1 race as seq 1
	report(2) // restarted life: pushes var-2 race, also as seq 1

	var merged []struct {
		Var uint32 `json:"var"`
	}
	body := httpGet(t, srv.URL+"/races")
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatalf("parsing /races: %v", err)
	}
	if len(merged) != 1 || merged[0].Var != 2 {
		t.Fatalf("restarted reporter's races lost — /races holds %s, want the var-2 race", body)
	}
}

// TestFleetCollectorRejectsGarbage covers the protocol's failure modes.
func TestFleetCollectorRejectsGarbage(t *testing.T) {
	col := newCollector(t, ingest.Options{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	post := func(body []byte) int {
		resp, err := http.Post(srv.URL+fleet.PushPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	encode := func(p *fleet.Push) []byte {
		var buf bytes.Buffer
		if err := fleet.EncodePush(&buf, p); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}

	if code := post([]byte("not gzip")); code != http.StatusBadRequest {
		t.Errorf("raw JSON accepted: status %d", code)
	}
	wrongVersion := encode(&fleet.Push{Version: 99, Instance: "i", Seq: 1, Races: []byte("[]")})
	if code := post(wrongVersion); code != http.StatusBadRequest {
		t.Errorf("wrong schema version accepted: status %d", code)
	}
	noInstance := encode(&fleet.Push{Version: fleet.SchemaVersion, Seq: 1, Races: []byte("[]")})
	if code := post(noInstance); code != http.StatusBadRequest {
		t.Errorf("anonymous push accepted: status %d", code)
	}
	badRaces := encode(&fleet.Push{Version: fleet.SchemaVersion, Instance: "i", Seq: 1,
		Races: []byte(`[{"kind":"sideways","count":1,"instances":1}]`)})
	if code := post(badRaces); code != http.StatusBadRequest {
		t.Errorf("unparseable triage list accepted: status %d", code)
	}
	if resp, err := http.Get(srv.URL + fleet.PushPath); err != nil {
		t.Fatalf("get push path: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET on push path: status %d", resp.StatusCode)
		}
	}
	if !strings.Contains(string(httpGet(t, srv.URL+"/metrics")), "pacer_collector_push_errors_total 4") {
		t.Errorf("rejected pushes not counted")
	}
}

// TestFleetPushEncoding round-trips a push through the gzip wire format.
func TestFleetPushEncoding(t *testing.T) {
	in := &fleet.Push{
		Version:  fleet.SchemaVersion,
		Instance: "inst-9",
		Epoch:    77,
		Seq:      41,
		Dropped:  3,
		Races:    json.RawMessage(`[{"var":1,"kind":"write-read","first_site":2,"second_site":3,"first_thread":0,"second_thread":1,"count":5,"instances":1,"first_instance":"inst-9"}]`),
		Shadow:   &fleet.ShadowGauges{Hits: 99, Misses: 12, Evicts: 4, Vars: 7},
	}
	var buf bytes.Buffer
	if err := fleet.EncodePush(&buf, in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, entries, err := fleet.DecodePush(&buf, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := fleet.ParseTriage(in.Races)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if out.Instance != in.Instance || out.Epoch != in.Epoch || out.Seq != in.Seq || out.Dropped != in.Dropped ||
		!reflect.DeepEqual(entries, want) {
		t.Errorf("round trip mangled push: %+v, entries %v", out, entries)
	}
	if out.Shadow == nil || *out.Shadow != *in.Shadow {
		t.Errorf("round trip mangled shadow gauges: %+v", out.Shadow)
	}
}

// bombPush hand-builds a gzip push whose compressed body is tiny but
// whose inflated size is just over 1 MiB: a megabyte of JSON whitespace
// inside the races array compresses ~1000:1. (EncodePush cannot produce
// this — json.Marshal compacts RawMessage — which is exactly why the
// collector must not trust the encoder on the other end.)
func bombPush(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, part := range [][]byte{
		[]byte(`{"version":1,"instance":"inst-bomb","seq":1,"races":[`),
		bytes.Repeat([]byte(" "), 1<<20),
		[]byte(`]}`),
	} {
		if _, err := zw.Write(part); err != nil {
			t.Fatalf("building bomb: %v", err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatalf("building bomb: %v", err)
	}
	return buf.Bytes()
}

// TestFleetDecodePushDecompressedCap rejects a decompression bomb: a push
// whose compressed body is tiny but whose inflated size exceeds the cap
// must fail with a size error, not expand in memory.
func TestFleetDecodePushDecompressedCap(t *testing.T) {
	bomb := bombPush(t)
	if _, _, err := fleet.DecodePush(bytes.NewReader(bomb), 64<<10); err == nil {
		t.Fatalf("%d compressed bytes inflating past the 64 KiB cap were accepted", len(bomb))
	} else if !strings.Contains(err.Error(), "decompressed") {
		t.Errorf("bomb rejected for the wrong reason: %v", err)
	}
	// The same push passes under a cap that accommodates it.
	if _, _, err := fleet.DecodePush(bytes.NewReader(bomb), 2<<20); err != nil {
		t.Errorf("push within the cap rejected: %v", err)
	}
}

// TestFleetCollectorDecompressionBomb pins the cap end to end: the
// collector must 400 a bomb (and count it as a bad push) even though its
// compressed body is well under MaxBodyBytes.
func TestFleetCollectorDecompressionBomb(t *testing.T) {
	col := newCollector(t, ingest.Options{
		MaxBodyBytes:         1 << 20,
		MaxDecompressedBytes: 64 << 10,
	})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+fleet.PushPath, "application/json", bytes.NewReader(bombPush(t)))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bomb got status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(httpGet(t, srv.URL+"/metrics")), "pacer_collector_push_errors_total 1") {
		t.Errorf("bomb not counted as a push error")
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFleetAuthToken pins the bearer-token check on /v1/push: with
// -auth-token set, unauthenticated and wrong-token pushes get 401 (and
// count in pacer_collector_unauthorized_total) before the body is even
// decoded, while a reporter configured with the matching token delivers
// normally and the read-only endpoints stay open.
func TestFleetAuthToken(t *testing.T) {
	const token = "s3cret-fleet-token"
	col := newCollector(t, ingest.Options{AuthToken: token})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	valid := func() []byte {
		var buf bytes.Buffer
		p := &fleet.Push{Version: fleet.SchemaVersion, Instance: "inst-auth", Seq: 1, Races: []byte("[]")}
		if err := fleet.EncodePush(&buf, p); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	post := func(auth string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+fleet.PushPath, bytes.NewReader(valid()))
		if err != nil {
			t.Fatalf("request: %v", err)
		}
		req.Header.Set("Content-Type", "application/json")
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := post(""); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless push: status %d, want 401", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 carries no WWW-Authenticate challenge")
	}
	if resp := post("Bearer wrong-token"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong-token push: status %d, want 401", resp.StatusCode)
	}
	if resp := post(token); resp.StatusCode != http.StatusUnauthorized {
		// A bare token without the Bearer scheme is not a credential.
		t.Errorf("schemeless push: status %d, want 401", resp.StatusCode)
	}
	if resp := post("Bearer " + token); resp.StatusCode != http.StatusNoContent {
		t.Errorf("authenticated push: status %d, want 204", resp.StatusCode)
	}

	metrics := string(httpGet(t, srv.URL+"/metrics"))
	if !strings.Contains(metrics, "pacer_collector_unauthorized_total 3") {
		t.Errorf("unauthorized pushes not counted:\n%s", metrics)
	}
	if !strings.Contains(metrics, "pacer_collector_push_errors_total 0") {
		t.Errorf("auth rejections leaked into push_errors_total:\n%s", metrics)
	}

	// A reporter wired with the token delivers end to end.
	agg := pacer.NewAggregator()
	runInstance(agg.Reporter("inst-auth"), 5000, 1)
	rep, err := fleet.NewReporter(agg, fleet.ReporterOptions{
		Collector: srv.URL,
		Instance:  "inst-auth",
		AuthToken: token,
		Interval:  time.Hour, // only explicit flushes
		Timeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatalf("reporter: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rep.Close(ctx); err != nil {
		t.Fatalf("authenticated reporter could not deliver: %v", err)
	}
	merged, err := col.State().Merged()
	if err != nil {
		t.Fatalf("merged: %v", err)
	}
	if merged.Distinct() == 0 {
		t.Error("authenticated reporter's races missing from the merged view")
	}

	// A reporter without the token fails loudly instead of silently
	// losing reports.
	errCh := make(chan error, 16)
	agg2 := pacer.NewAggregator()
	runInstance(agg2.Reporter("inst-anon"), 6000, 1)
	anon, err := fleet.NewReporter(agg2, fleet.ReporterOptions{
		Collector:  srv.URL,
		Instance:   "inst-anon",
		Interval:   time.Hour,
		Timeout:    2 * time.Second,
		MinBackoff: time.Millisecond,
		OnError:    func(e error) { errCh <- e },
	})
	if err != nil {
		t.Fatalf("reporter: %v", err)
	}
	anon.Flush()
	select {
	case e := <-errCh:
		if !strings.Contains(e.Error(), "401") {
			t.Errorf("tokenless reporter failed with %v, want a 401", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tokenless reporter reported no error")
	}
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	anon.Close(canceled) // flush cannot succeed; abandon immediately
}

// TestFleetCollectorInstanceTTL pins the retention contract: with
// InstanceTTL set, an instance that stops pushing drops out of /races and
// /metrics once its last push is older than the TTL (counted in the
// expired-instances metric), instances still pushing are untouched, and a
// fresh push from an expired name simply re-registers it.
func TestFleetCollectorInstanceTTL(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	col := newCollector(t, ingest.Options{
		State: ingest.StateOptions{InstanceTTL: time.Hour},
		Clock: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	push := func(instance string, seq uint64, v pacer.VarID) {
		t.Helper()
		agg := pacer.NewAggregator()
		agg.Reporter(instance)(pacer.Race{Var: v, Kind: pacer.WriteRead, FirstSite: 10, SecondSite: 11})
		races, _ := json.Marshal(agg)
		var body bytes.Buffer
		err := fleet.EncodePush(&body, &fleet.Push{
			Version: fleet.SchemaVersion, Instance: instance, Seq: seq, Races: races,
		})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		resp, err := http.Post(srv.URL+fleet.PushPath, "application/json", &body)
		if err != nil {
			t.Fatalf("push: %v", err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("push %s seq %d: status %d", instance, seq, resp.StatusCode)
		}
	}

	push("inst-old", 1, 1)
	advance(30 * time.Minute)
	push("inst-live", 1, 2)

	// Both within the TTL: the merged view carries both races.
	if agg, err := col.State().Merged(); err != nil || agg.Distinct() != 2 {
		t.Fatalf("Merged before expiry: distinct %v, err %v", agg.Distinct(), err)
	}

	// 75 minutes after inst-old's only push (45 after inst-live's): only
	// inst-old has outlived the one-hour TTL.
	advance(45 * time.Minute)
	races := string(httpGet(t, srv.URL+"/races"))
	if strings.Contains(races, `"inst-old"`) {
		t.Errorf("/races still lists the expired instance:\n%s", races)
	}
	if !strings.Contains(races, `"inst-live"`) {
		t.Errorf("/races lost the live instance:\n%s", races)
	}
	metrics := string(httpGet(t, srv.URL+"/metrics"))
	for _, want := range []string{
		"pacer_collector_instances 1\n",
		"pacer_collector_instances_expired_total 1\n",
		`pacer_collector_instance_last_seen_timestamp_seconds{instance="inst-live"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, `instance="inst-old"`) {
		t.Errorf("metrics still carry series for the expired instance:\n%s", metrics)
	}

	// The expired name pushing again is a fresh registration.
	push("inst-old", 5, 3)
	if agg, err := col.State().Merged(); err != nil || agg.Distinct() != 2 {
		t.Fatalf("Merged after re-registration: distinct %v, err %v", agg.Distinct(), err)
	}

	// Everyone falls silent: past the TTL the fleet view is empty, and both
	// evictions are on the books.
	advance(2 * time.Hour)
	if agg, err := col.State().Merged(); err != nil || agg.Distinct() != 0 {
		t.Fatalf("Merged after full expiry: distinct %v, err %v", agg.Distinct(), err)
	}
	if m := string(httpGet(t, srv.URL+"/metrics")); !strings.Contains(m, "pacer_collector_instances_expired_total 3\n") {
		t.Errorf("expired counter after all evictions wrong:\n%s", m)
	}
}

// fakeFrontDoor is a canned pacer.FrontDoorAccounted for testing the
// shadow-gauge telemetry path without a real instrumented program.
type fakeFrontDoor struct{ st pacer.FrontDoorStats }

func (f fakeFrontDoor) FrontDoorStats() pacer.FrontDoorStats { return f.st }

// TestFleetShadowGauges pins the front-door observability path end to
// end: a reporter whose Stats callback reads a detector with a mounted
// instrumentation front door ships the shadow-map counters on its pushes,
// and the collector re-exports them as per-instance Prometheus series —
// while a plain library instance emits no shadow series at all.
func TestFleetShadowGauges(t *testing.T) {
	col := newCollector(t, ingest.Options{})
	srv := httptest.NewServer(col.Handler())
	defer srv.Close()

	agg := pacer.NewAggregator()
	d := pacer.New(pacer.Options{
		SamplingRate: 1, Seed: 5,
		OnRace: agg.Reporter("inst-shim"),
	})
	d.MountFrontDoor(fakeFrontDoor{st: pacer.FrontDoorStats{
		ShadowHits: 640, ShadowMisses: 32, ShadowEvicts: 8, ShadowVars: 24,
	}})
	main := d.NewThread()
	a, b := d.Fork(main), d.Fork(main)
	v := d.NewVarID()
	d.Write(a, v, 300)
	d.Read(b, v, 301)
	d.Join(main, a)
	d.Join(main, b)
	if st := d.Stats(); !st.FrontDoor || st.ShadowHits != 640 {
		t.Fatalf("front door counters not folded into Stats: %+v", st)
	}

	plainAgg := pacer.NewAggregator()
	runInstance(plainAgg.Reporter("inst-plain"), 8000, 1)
	plain := pacer.New(pacer.Options{SamplingRate: 1, Seed: 6})

	for _, inst := range []struct {
		name  string
		agg   *pacer.Aggregator
		stats func() pacer.Stats
	}{
		{"inst-shim", agg, d.Stats},
		{"inst-plain", plainAgg, plain.Stats},
	} {
		rep, err := fleet.NewReporter(inst.agg, fleet.ReporterOptions{
			Collector: srv.URL,
			Instance:  inst.name,
			Stats:     inst.stats,
			Interval:  time.Hour,
			Timeout:   2 * time.Second,
		})
		if err != nil {
			t.Fatalf("reporter %s: %v", inst.name, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := rep.Close(ctx); err != nil {
			t.Fatalf("reporter %s: %v", inst.name, err)
		}
		cancel()
	}

	metrics := string(httpGet(t, srv.URL+"/metrics"))
	for _, series := range []string{
		`pacer_shadow_hits_total{instance="inst-shim"} 640`,
		`pacer_shadow_misses_total{instance="inst-shim"} 32`,
		`pacer_shadow_evicts_total{instance="inst-shim"} 8`,
		`pacer_shadow_vars{instance="inst-shim"} 24`,
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics missing %s:\n%s", series, metrics)
		}
	}
	if strings.Contains(metrics, `pacer_shadow_hits_total{instance="inst-plain"}`) {
		t.Errorf("plain library instance grew shadow series:\n%s", metrics)
	}
}
