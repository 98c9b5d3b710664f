package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"pacer"
	"pacer/internal/fleet"
)

func newTestService(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// postPush sends one raw push and returns the response (body drained).
func postPush(t *testing.T, url string, p *fleet.Push) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if err := fleet.EncodePush(&body, p); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+fleet.PushPath, "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, blob)
	}
	return string(blob)
}

// referenceRaces merges each aggregator's export in sorted instance
// order — the collector's own merge procedure — and renders it the way
// /races does.
func referenceRaces(t *testing.T, aggs map[string]*pacer.Aggregator) string {
	t.Helper()
	names := make([]string, 0, len(aggs))
	for name := range aggs {
		names = append(names, name)
	}
	sort.Strings(names)
	ref := pacer.NewAggregator()
	for _, name := range names {
		blob, err := aggs[name].MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.ImportJSON(blob); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := ref.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(blob) + "\n"
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIngestV1V2Compat is the wire-compat acceptance test: an old-style
// client posting cumulative (v1) pushes and a delta-capable (v2)
// reporter feed the same collector, and the merged /races view is
// byte-identical to an in-process aggregator over the same races.
func TestIngestV1V2Compat(t *testing.T) {
	_, srv := newTestService(t, Options{})

	aggOld := pacer.NewAggregator()
	aggNew := pacer.NewAggregator()
	fresh, err := fleet.NewReporter(aggNew, fleet.ReporterOptions{
		Collector:  srv.URL,
		Instance:   "inst-new",
		Interval:   time.Hour, // driven by Flush
		Timeout:    5 * time.Second,
		MinBackoff: 5 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The old-style client knows nothing of epochs, deltas or the
	// ProtocolHeader: every push is the whole cumulative list, framed v1.
	pushOld := func(seq uint64) {
		races, err := aggOld.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		p := &fleet.Push{Version: fleet.SchemaVersion, Instance: "inst-old", Seq: seq, Races: races}
		if resp := postPush(t, srv.URL, p); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("v1 push seq %d answered %s, want 204", seq, resp.Status)
		}
	}
	pushNew := func(want uint64) {
		fresh.Flush()
		waitFor(t, "push ack", func() bool { return fresh.Stats().Pushes >= want })
	}

	// Round 1: both clients push full snapshots; the ack teaches the
	// delta-capable reporter that this collector speaks v2.
	for i := 0; i < 4; i++ {
		aggOld.Reporter("inst-old")(pacer.Race{Var: pacer.VarID(i), Kind: pacer.WriteWrite,
			FirstSite: pacer.SiteID(100 + 2*i), SecondSite: pacer.SiteID(101 + 2*i)})
		aggNew.Reporter("inst-new")(pacer.Race{Var: pacer.VarID(1000 + i), Kind: pacer.WriteRead,
			FirstSite: pacer.SiteID(500 + 2*i), SecondSite: pacer.SiteID(501 + 2*i)})
	}
	pushOld(1)
	pushNew(1)

	// Rounds 2..4: growth on both sides; the v2 reporter now ships
	// deltas, the v1 client keeps shipping cumulative snapshots.
	for round := 2; round <= 4; round++ {
		aggOld.Reporter("inst-old")(pacer.Race{Var: 0, Kind: pacer.WriteWrite, FirstSite: 100, SecondSite: 101})
		aggNew.Reporter("inst-new")(pacer.Race{Var: pacer.VarID(1000 + 10*round), Kind: pacer.ReadWrite,
			FirstSite: pacer.SiteID(700 + 2*round), SecondSite: pacer.SiteID(701 + 2*round)})
		pushOld(uint64(round))
		pushNew(uint64(round))
	}

	if st := fresh.Stats(); st.DeltaPushes == 0 {
		t.Fatalf("delta-capable reporter never sent a delta: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fresh.Close(ctx); err != nil {
		t.Fatal(err)
	}

	got := getBody(t, srv.URL+"/races")
	want := referenceRaces(t, map[string]*pacer.Aggregator{"inst-old": aggOld, "inst-new": aggNew})
	if got != want {
		t.Fatalf("mixed v1/v2 fleet diverged from the in-process aggregator:\n got %s\nwant %s", got, want)
	}
}

// TestIngestServiceRestartPreservesRaces is the snapshot round-trip
// regression: persist, restart, and /races serves byte-identical state —
// including the seq tracking delta pushes chain on.
func TestIngestServiceRestartPreservesRaces(t *testing.T) {
	dir := t.TempDir()
	svc1, err := New(Options{StateDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(svc1.Handler())
	for i, name := range []string{"pod-a", "pod-b", "pod-c"} {
		p, _ := pushFor(name, uint64(i+1), 3, 0,
			entryFor(uint32(10*i), uint32(100*i+10), i+1, name),
			entryFor(uint32(10*i+1), uint32(100*i+30), 2*i+1, name))
		if resp := postPush(t, srv1.URL, p); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("seed push for %s: %s", name, resp.Status)
		}
	}
	before := getBody(t, srv1.URL+"/races")
	srv1.Close()
	if err := svc1.Close(); err != nil { // writes the final snapshot
		t.Fatal(err)
	}

	svc2, err := New(Options{StateDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	defer svc2.Close()

	if after := getBody(t, srv2.URL+"/races"); after != before {
		t.Fatalf("/races changed across restart:\n before %s\n after  %s", before, after)
	}
	// A delta chained on the pre-restart seq still lands.
	p, _ := pushFor("pod-a", 1, 4, 3, entryFor(0, 10, 5, "pod-a"))
	if resp := postPush(t, srv2.URL, p); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-restart delta: %s", resp.Status)
	}
}

// TestIngestServiceResyncAfterStateLoss: a collector that lost an
// instance's state (restart without -state-dir) answers a delta with
// 409, and a subsequent full snapshot heals it.
func TestIngestServiceResyncAfterStateLoss(t *testing.T) {
	_, srv := newTestService(t, Options{})
	delta, _ := pushFor("amnesia", 1, 5, 4, entryFor(1, 10, 3, "amnesia"))
	resp := postPush(t, srv.URL, delta)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delta without state answered %s, want 409", resp.Status)
	}
	if got := resp.Header.Get(fleet.ProtocolHeader); got != "2" {
		t.Fatalf("409 carried %s %q, want 2 (reporter must stay in delta mode)", fleet.ProtocolHeader, got)
	}
	full, _ := pushFor("amnesia", 1, 6, 0, entryFor(1, 10, 3, "amnesia"))
	if resp := postPush(t, srv.URL, full); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("healing full push answered %s, want 204", resp.Status)
	}
}

func TestIngestServiceAuth(t *testing.T) {
	svc, srv := newTestService(t, Options{AuthToken: "s3cret"})
	p, _ := pushFor("auth-inst", 1, 1, 0, entryFor(1, 10, 1, "auth-inst"))

	resp := postPush(t, srv.URL, p)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless push answered %s, want 401", resp.Status)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 must carry WWW-Authenticate")
	}

	var body bytes.Buffer
	if err := fleet.EncodePush(&body, p); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+fleet.PushPath, &body)
	req.Header.Set("Authorization", "Bearer s3cret")
	authed, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, authed.Body)
	authed.Body.Close()
	if authed.StatusCode != http.StatusNoContent {
		t.Fatalf("authorized push answered %s, want 204", authed.Status)
	}
	if svc.state.Instances() != 1 {
		t.Fatalf("authorized push did not land: %d instances", svc.state.Instances())
	}
}

// TestIngestServiceAuthBeforeDecode pins the stage order: a tokenless
// push is refused on its headers alone, so neither garbage nor a gzip
// bomb is inflated or parsed, and neither counts as a decode error.
func TestIngestServiceAuthBeforeDecode(t *testing.T) {
	_, srv := newTestService(t, Options{AuthToken: "s3cret"})

	var bomb bytes.Buffer
	zw := gzip.NewWriter(&bomb)
	if _, err := zw.Write(make([]byte, 8<<20)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	for name, body := range map[string][]byte{"garbage": []byte("not gzip"), "bomb": bomb.Bytes()} {
		resp, err := http.Post(srv.URL+fleet.PushPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("tokenless %s answered %s, want 401", name, resp.Status)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("tokenless %s: 401 must carry WWW-Authenticate", name)
		}
	}

	metrics := getBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		"pacer_ingest_decode_errors_total 0\n",
		"pacer_ingest_unauthorized_total 2\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
}

func TestIngestServiceRateLimitHTTP(t *testing.T) {
	_, srv := newTestService(t, Options{PushRate: 0.001, PushBurst: 1})
	p1, _ := pushFor("chatty", 1, 1, 0, entryFor(1, 10, 1, "chatty"))
	if resp := postPush(t, srv.URL, p1); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("first push answered %s", resp.Status)
	}
	p2, _ := pushFor("chatty", 1, 2, 0, entryFor(1, 10, 2, "chatty"))
	if resp := postPush(t, srv.URL, p2); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst-exceeding push answered %s, want 429", resp.Status)
	}
}

// TestIngestServiceMetrics pins the acceptance metric names and checks
// each counted path actually moved its counter.
func TestIngestServiceMetrics(t *testing.T) {
	_, srv := newTestService(t, Options{AuthToken: ""})
	p, _ := pushFor("metrics-inst", 1, 1, 0, entryFor(1, 10, 2, "metrics-inst"))
	if resp := postPush(t, srv.URL, p); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push: %s", resp.Status)
	}
	// One malformed push to move the decode-error counter.
	resp, err := http.Post(srv.URL+fleet.PushPath, "application/json", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	metrics := getBody(t, srv.URL+"/metrics")
	for _, want := range []string{
		// The acceptance set.
		"pacer_ingest_decoded_total 1",
		"pacer_ingest_unauthorized_total 0",
		"pacer_ingest_ratelimited_total 0",
		"pacer_ingest_shed_total 0",
		"pacer_ingest_merged_total 1",
		// Pipeline health around it.
		"pacer_ingest_decode_errors_total 1",
		"pacer_ingest_state_bytes",
		"pacer_ingest_evicted_instances_total 0",
		// Continuity with the original collector's dashboard names.
		"pacer_collector_pushes_total 1",
		"pacer_collector_instances 1",
		"pacer_collector_distinct_races 1",
		`pacer_collector_instance_last_seen_timestamp_seconds{instance="metrics-inst"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
