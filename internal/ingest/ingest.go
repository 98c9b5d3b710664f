// Package ingest is the fleet collector: the push-ingestion tier that
// cmd/pacerd serves, combining many sampled instances' race reports into
// one fleet-wide triage list (the paper's deployment story, Section 1).
//
// The tier is an explicit pipeline mounted on /v1/push:
//
//	authenticate → decode → rate-limit → shed(merge)
//
// Authentication reads only headers, so an unauthenticated push is
// rejected before its body is inflated or parsed.
//
// Every stage is a Stage value with its own counters (exported on
// /metrics as pacer_ingest_*). Queue wraps the merge and bounds the
// number of pushes in flight, shedding (503, counted) instead of
// queueing without bound. It admits pushes rather than handing them off:
// an admitted push waits for one of MergeWorkers run slots and merges on
// its own handler goroutine.
//
// Behind the pipeline, State shards the collector's per-instance triage
// state by instance key so pushes to different instances never contend
// on one mutex, bounds per-shard memory with LRU eviction (counted),
// and supports versioned snapshot/restore so a collector restart loses
// zero triage entries. Service assembles all of it into the HTTP
// surface pacerd mounts.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"pacer/internal/fleet"
)

// Request is the unit of work flowing through the pipeline: one push,
// progressively enriched by the stages (Decode fills Push and Entries,
// Merge reports the outcome through Stale).
type Request struct {
	// Header carries the HTTP request headers (bearer token for Auth).
	Header http.Header
	// Body is the raw (still compressed) push body, already bounded by
	// the transport-level MaxBytesReader.
	Body io.Reader
	// Push is the decoded envelope; set by the Decode stage.
	Push *fleet.Push
	// Entries is the materialized triage payload; set by Decode.
	Entries map[fleet.TriageKey]fleet.TriageEntry
	// Stale is set by Merge when the push was acknowledged without
	// effect (sequence not newer — a retry or out-of-order delivery).
	Stale bool
}

// Stage is one step of the ingest pipeline. Implementations keep their
// own counters and return nil to pass the request on, or an error
// (usually a *StatusError) to stop it.
type Stage interface {
	// Name identifies the stage in metrics and error messages.
	Name() string
	// Process handles one request. It must be safe for concurrent use.
	Process(ctx context.Context, req *Request) error
}

// StageFunc adapts a function to the Stage interface.
type StageFunc struct {
	StageName string
	Fn        func(ctx context.Context, req *Request) error
}

func (s StageFunc) Name() string { return s.StageName }

func (s StageFunc) Process(ctx context.Context, req *Request) error { return s.Fn(ctx, req) }

// StatusError is a pipeline error that knows the HTTP status the
// handler should answer with.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string {
	if e.Err == nil {
		return http.StatusText(e.Status)
	}
	return e.Err.Error()
}

func (e *StatusError) Unwrap() error { return e.Err }

// Errf builds a StatusError with a formatted message.
func Errf(status int, format string, args ...any) *StatusError {
	return &StatusError{Status: status, Err: fmt.Errorf(format, args...)}
}

// StatusOf maps a pipeline error to its HTTP status (500 for errors
// that carry none).
func StatusOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status
	}
	return http.StatusInternalServerError
}

// Pipeline runs stages in order, stopping at the first error. It is the
// spine of the ingest tier; the load-shed Queue nests the merge inside
// itself, so the top-level sequence stays readable in one place.
type Pipeline struct {
	stages []Stage
}

// NewPipeline composes stages into a pipeline.
func NewPipeline(stages ...Stage) *Pipeline { return &Pipeline{stages: stages} }

// Process runs req through every stage in order.
func (p *Pipeline) Process(ctx context.Context, req *Request) error {
	for _, s := range p.stages {
		if err := s.Process(ctx, req); err != nil {
			return err
		}
	}
	return nil
}
