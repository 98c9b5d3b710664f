// Command pacerd is the fleet race-report collector: the daemon side of
// the paper's deployment story (Section 1), where many production
// instances each sample at a low rate and their reports combine into a
// fleet-wide triage list.
//
// Instances run a fleet.Reporter pointed at this daemon. Pushes flow
// through the ingest pipeline (internal/ingest):
//
//	authenticate → decode → rate-limit → shed(merge)
//
// where the merge applies each push to sharded, memory-bounded
// per-instance state. pacerd serves:
//
//	POST /v1/push  — accept one gzip JSON snapshot, cumulative (v1) or
//	                 delta (v2; see docs/fleet.md). Acks advertise delta
//	                 capability via the Pacer-Protocol header.
//	GET  /races    — the merged fleet-wide triage list as JSON
//	GET  /healthz  — liveness
//	GET  /metrics  — Prometheus text metrics (pacer_ingest_* pipeline
//	                 counters plus the pacer_collector_* continuity set)
//
// With -auth-token set, /v1/push additionally requires the matching
// "Authorization: Bearer <token>" header (reporters send it via
// ReporterOptions.AuthToken); unauthenticated pushes get 401.
//
// With -state-dir set, pacerd persists its state there periodically and
// on shutdown (atomic rename, versioned format) and restores it on boot,
// so a restart loses zero triage entries and delta chains continue
// across it.
//
// With -instance-ttl set, instances that stop pushing drop out of /races
// and /metrics once unseen for that long. -max-state-bytes bounds the
// collector's memory: over the bound, the least-recently-seen instances
// are evicted whole (triage state and sequence tracking together).
//
// pacerd shuts down gracefully on SIGTERM/SIGINT: in-flight requests get
// -shutdown-timeout to complete, then the final state snapshot is
// written before exit.
//
// Usage:
//
//	pacerd -listen :9120 -state-dir /var/lib/pacerd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pacer/internal/fleet"
	"pacer/internal/ingest"
)

func main() {
	listen := flag.String("listen", ":9120", "address to listen on")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"grace period for in-flight requests on SIGTERM/SIGINT")
	maxBody := flag.Int64("max-push-bytes", 8<<20,
		"largest accepted compressed push body, in bytes")
	maxInflated := flag.Int64("max-push-decompressed-bytes", 0,
		"largest accepted push after gzip inflation, in bytes (0 = 10x max-push-bytes)")
	authToken := flag.String("auth-token", "",
		"when set, /v1/push requires 'Authorization: Bearer <token>' with this token (reporters set ReporterOptions.AuthToken)")
	instanceTTL := flag.Duration("instance-ttl", 0,
		"expire instances not seen for this long from /races and /metrics, e.g. 24h (0 = keep forever)")
	stateDir := flag.String("state-dir", "",
		"directory to persist collector state in (restored on boot; empty = in-memory only)")
	snapshotInterval := flag.Duration("snapshot-interval", 30*time.Second,
		"how often to persist state to -state-dir (a final snapshot is always written on shutdown)")
	shards := flag.Int("shards", 16,
		"state shard count (rounded up to a power of two); pushes to different instances never share a lock")
	maxStateBytes := flag.Int64("max-state-bytes", 256<<20,
		"collector state memory bound; over it, least-recently-seen instances are evicted whole")
	pushRate := flag.Float64("push-rate", 0,
		"per-instance push rate limit in pushes/second (0 = unlimited)")
	pushBurst := flag.Float64("push-burst", 0,
		"per-instance push burst capacity (0 = 2x push-rate)")
	queueDepth := flag.Int("queue-depth", 256,
		"pushes waiting to merge before load-shedding with 503")
	mergeWorkers := flag.Int("merge-workers", 4,
		"merges run at once, each on its push's handler goroutine")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: pacerd [-listen addr] [-state-dir dir] [flags]; see pacerd -h\n")
		os.Exit(2)
	}
	log.SetPrefix("pacerd: ")
	log.SetFlags(log.LstdFlags | log.LUTC)

	svc, err := ingest.New(ingest.Options{
		State: ingest.StateOptions{
			Shards:      *shards,
			MaxBytes:    *maxStateBytes,
			InstanceTTL: *instanceTTL,
		},
		MaxBodyBytes:         *maxBody,
		MaxDecompressedBytes: *maxInflated,
		AuthToken:            *authToken,
		PushRate:             *pushRate,
		PushBurst:            *pushBurst,
		QueueDepth:           *queueDepth,
		MergeWorkers:         *mergeWorkers,
		StateDir:             *stateDir,
		SnapshotInterval:     *snapshotInterval,
		OnError:              func(err error) { log.Printf("background: %v", err) },
	})
	if err != nil {
		log.Fatalf("starting ingest tier: %v", err)
	}
	if *authToken != "" {
		log.Printf("push authentication enabled (bearer token)")
	}
	if *instanceTTL > 0 {
		log.Printf("instance retention enabled: expiring instances unseen for %v", *instanceTTL)
	}
	if *stateDir != "" {
		n := svc.State().Instances()
		log.Printf("state persistence enabled in %s (every %v); restored %d instance(s)",
			*stateDir, *snapshotInterval, n)
	}
	if *pushRate > 0 {
		log.Printf("per-instance rate limit enabled: %.3g pushes/s", *pushRate)
	}

	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("collecting race reports on http://%s (push %s, triage /races)",
		ln.Addr(), fleet.PushPath)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		log.Printf("received %v, draining for up to %v", sig, *shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
			svc.Close() // still try to persist what we hold
			os.Exit(1)
		}
		// The listener is drained; finish the merges and write the
		// final state snapshot so the successor boots from exactly here.
		if err := svc.Close(); err != nil {
			log.Printf("final state snapshot: %v", err)
			os.Exit(1)
		}
		if agg, err := svc.State().Merged(); err == nil {
			log.Printf("shut down cleanly with %d distinct race(s) on file", agg.Distinct())
		} else {
			log.Printf("shut down cleanly")
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
}
