// Package fleet ships race reports off the box — the transport half of
// the deployment the paper leads with (Section 1): many production
// instances each sample at a low rate r, and their reports combine at a
// collector so the fleet-wide detection probability approaches 1.
//
// The client side is Reporter: it wraps a pacer.Aggregator, periodically
// snapshots its exported triage list, and pushes the snapshot to a
// collector as gzip-compressed JSON over HTTP POST. It is robust by
// construction — a bounded in-memory queue (oldest snapshot dropped,
// counted), a per-push timeout, exponential backoff with jitter, and a
// deadline-bounded flush on Close — and it never touches the network from
// the detection hot path: races land in the in-memory aggregator and the
// network work happens on the reporter's own goroutine.
//
// The server side is the ingest tier in internal/ingest: an http.Handler
// that accepts pushes, keeps per-instance triage state, and merges it on
// demand into one fleet-wide triage list. cmd/pacerd mounts it as a
// daemon.
//
// A push carries either the instance's complete triage list so far (a
// cumulative snapshot, every schema version) or, once the collector has
// advertised SchemaVersionDelta, only the entries that changed since a
// snapshot the collector acknowledged (a delta). Every push is numbered
// and carries absolute counts, so the collector replaces rather than adds:
// retries and duplicates are idempotent — a lost acknowledgment or a
// re-sent push can never double-count a race.
package fleet

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// SchemaVersion is the baseline wire schema version: cumulative
// snapshots, understood by every collector ever shipped. A collector
// rejects pushes whose version it does not understand (HTTP 400), so
// mixed-version fleets fail loudly instead of merging garbage.
const SchemaVersion = 1

// SchemaVersionDelta is the delta-capable wire schema: a version-2 push
// whose BaseSeq is nonzero carries only the triage entries that changed
// since the snapshot with that sequence number, instead of the full
// cumulative list. Reporters never send version 2 unsolicited — they
// start cumulative and switch only after a collector advertises the
// version in the ProtocolHeader of an ack — so old collectors keep
// receiving version-1 pushes they understand.
const SchemaVersionDelta = 2

// ProtocolHeader is the response header a delta-capable collector sets
// on every push ack, carrying the highest schema version it accepts
// (e.g. "2"). Reporters treat its absence as a version-1 collector.
const ProtocolHeader = "Pacer-Protocol"

// PushPath is the collector endpoint reporters POST snapshots to.
const PushPath = "/v1/push"

// Push is one reporter → collector message: an instance's complete
// current triage list.
type Push struct {
	// Version is the wire schema version (SchemaVersion).
	Version int `json:"version"`
	// Instance uniquely names the reporting instance; the collector keys
	// its state by this name.
	Instance string `json:"instance"`
	// Epoch is a random per-process boot ID, drawn once when the reporter
	// starts. A restarted process reuses its instance name (hostname+pid
	// is pid 1 in every container) but never its epoch, so the collector
	// can tell a fresh process's seq-1 push from a stale re-delivery and
	// reset its per-instance sequence tracking instead of dropping the
	// new process's reports.
	Epoch uint64 `json:"epoch,omitempty"`
	// Seq increases with every snapshot an instance takes. The collector
	// ignores a push whose Seq does not exceed the instance's last
	// accepted one within the same Epoch, which makes re-sent and
	// out-of-order snapshots harmless.
	Seq uint64 `json:"seq"`
	// BaseSeq, when nonzero on a version-2 push, marks Races as a delta:
	// only the triage entries that changed since (are new in, or carry
	// different counts than) this instance's snapshot with sequence
	// number BaseSeq. A collector that does not hold exactly that base —
	// restarted from an older snapshot, or the base was evicted — answers
	// 409 Conflict and the reporter falls back to a full cumulative
	// snapshot. Zero means Races is the complete cumulative list, on
	// every schema version.
	BaseSeq uint64 `json:"base_seq,omitempty"`
	// Dropped counts snapshots this instance's bounded queue has dropped
	// so far (observability only — dropped snapshots lose no races,
	// because every later snapshot is a superset).
	Dropped uint64 `json:"dropped,omitempty"`
	// Races is the triage list in the Aggregator persistence schema (the
	// output of pacer.Aggregator.MarshalJSON).
	Races json.RawMessage `json:"races"`
	// Shadow carries the instance's shadow-map accounting when the
	// instance runs behind an instrumentation front door (pacergo's
	// runtime shim). Absent on plain library instances and on older
	// reporters, so the field does not bump SchemaVersion.
	Shadow *ShadowGauges `json:"shadow,omitempty"`
}

// ShadowGauges is an instance's address-keyed shadow-map accounting as of
// its last snapshot: how the instrumentation front door is resolving real
// program addresses onto variable identifiers. Fields mirror pacer.Stats.
type ShadowGauges struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Evicts uint64 `json:"evicts"`
	Vars   uint64 `json:"vars"`
}

// EncodePush writes p to w as gzip-compressed JSON. The compressor comes
// from a pool and is reset, not rebuilt: a gzip writer at the default
// level carries about 800 KB of state, which would otherwise be allocated
// and zeroed for every push.
func EncodePush(w io.Writer, p *Push) error {
	e := encoders.Get().(*pushEncoder)
	err := e.encode(w, p)
	encoders.Put(e)
	return err
}

var encoders = sync.Pool{New: func() any {
	e := &pushEncoder{}
	e.zw = gzip.NewWriter(e)
	return e
}}

// pushEncoder is one reusable push compressor. The gzip writer writes
// through the encoder, which forwards to the caller's writer only for the
// duration of one encode, so an idle encoder keeps no caller's buffer
// reachable. Not safe for concurrent use.
type pushEncoder struct {
	zw  *gzip.Writer
	dst io.Writer
}

func (e *pushEncoder) Write(b []byte) (int, error) { return e.dst.Write(b) }

func (e *pushEncoder) encode(w io.Writer, p *Push) error {
	e.dst = w
	defer func() { e.dst = nil }()
	e.zw.Reset(e)
	if err := json.NewEncoder(e.zw).Encode(p); err != nil {
		return err
	}
	return e.zw.Close()
}

// DefaultMaxDecompressedBytes caps how far DecodePush will inflate one
// push when the caller passes no limit of its own.
const DefaultMaxDecompressedBytes = 64 << 20

// pushDecoder is one reusable gzip inflater, the buffered reader under
// it, and the buffers the push is inflated into and its escaped strings
// unescaped into. The inflater and the reader are reset per push, so
// decoding one allocates no inflater state; release detaches the
// caller's body and drops a buffer grown past maxPooledBuf before the
// decoder goes back to the pool.
type pushDecoder struct {
	br      bufio.Reader
	zr      gzip.Reader
	buf     []byte
	scratch []byte
}

// maxPooledBuf caps the buffers a pooled decoder keeps: a cumulative push
// of a few hundred rows fits, and one outsized push does not pin its
// buffer for the life of the pool.
const maxPooledBuf = 256 << 10

var decoders = sync.Pool{New: func() any { return new(pushDecoder) }}

func (d *pushDecoder) release() {
	d.br.Reset(nil)
	if cap(d.buf) > maxPooledBuf {
		d.buf = nil
	}
	if cap(d.scratch) > maxPooledBuf {
		d.scratch = nil
	}
	decoders.Put(d)
}

// inflate reads the inflated push into d.buf, stopping at limit bytes. It
// returns the read error that ended the stream, nil at its end or at the
// limit.
func (d *pushDecoder) inflate(limit int64) error {
	buf := d.buf[:0]
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, int(min(int64(max(len(buf), 4<<10)), limit-int64(len(buf)))))
		}
		room := buf[len(buf):cap(buf)]
		if rest := limit - int64(len(buf)); int64(len(room)) > rest {
			room = room[:rest]
		}
		n, err := d.zr.Read(room)
		buf = buf[:len(buf)+n]
		if err != nil {
			d.buf = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	d.buf = buf
	return nil
}

// DecodePush reads one gzip-compressed push and validates it: a schema
// version from SchemaVersion through SchemaVersionDelta, a non-empty
// instance, a triage list, and — on a delta (nonzero BaseSeq) — a
// version-2 push whose base precedes its own sequence number. The push is
// inflated into a pooled buffer and its first JSON value scanned in one
// pass by a decoder for exactly the push schema (decode.go), which folds
// each triage row into a map keyed by distinct race as it reads it,
// validating rows as ParseTriage does, so a malformed push is rejected
// before any state is touched. Bytes after that value, and a read error
// after it has ended, are ignored. The returned Push carries the
// envelope; its Races is nil, the rows being in the map. No returned
// string aliases the pooled buffer: the instance and every row string
// are copies, except that a row's kind is its StaticKind constant and a
// first_instance equal to the instance is that same string.
// maxDecompressed bounds the inflated size — the compressed body alone
// is not a safe bound, since a kilobyte of gzip can expand to gigabytes
// and OOM the collector; <= 0 means DefaultMaxDecompressedBytes.
func DecodePush(r io.Reader, maxDecompressed int64) (*Push, map[TriageKey]TriageEntry, error) {
	if maxDecompressed <= 0 {
		maxDecompressed = DefaultMaxDecompressedBytes
	}
	dec := decoders.Get().(*pushDecoder)
	defer dec.release()
	dec.br.Reset(r)
	if err := dec.zr.Reset(&dec.br); err != nil {
		return nil, nil, fmt.Errorf("fleet: push is not gzip: %w", err)
	}
	readErr := dec.inflate(maxDecompressed + 1)
	if int64(len(dec.buf)) > maxDecompressed {
		return nil, nil, fmt.Errorf("fleet: push exceeds %d bytes decompressed", maxDecompressed)
	}
	s := scanner{data: dec.buf, scratch: dec.scratch}
	p := new(Push)
	entries := make(map[TriageKey]TriageEntry)
	races, bad, err := s.push(p, entries)
	dec.scratch = s.scratch
	if err != nil {
		if err == errUnexpectedEnd && readErr != nil {
			err = readErr
		}
		return nil, nil, fmt.Errorf("fleet: decoding push: %w", err)
	}
	if p.Version < SchemaVersion || p.Version > SchemaVersionDelta {
		return nil, nil, fmt.Errorf("fleet: unsupported schema version %d (this collector speaks 1..%d)",
			p.Version, SchemaVersionDelta)
	}
	if p.Instance == "" {
		return nil, nil, errors.New("fleet: push names no instance")
	}
	if !races {
		return nil, nil, errors.New("fleet: push carries no triage list")
	}
	if p.BaseSeq != 0 {
		if p.Version < SchemaVersionDelta {
			return nil, nil, fmt.Errorf("fleet: version-%d push carries a delta base", p.Version)
		}
		if p.BaseSeq >= p.Seq {
			return nil, nil, fmt.Errorf("fleet: delta base seq %d not before push seq %d", p.BaseSeq, p.Seq)
		}
	}
	if bad != nil {
		return nil, nil, bad
	}
	return p, entries, nil
}
