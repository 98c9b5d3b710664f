package fleet_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pacer/internal/fleet"
)

// legacyDecodePush is the collector's push decode as it was before the
// codec decoded envelope and triage rows in one pass: a fresh gzip reader
// per push, the envelope with the rows kept raw, then ParseTriage over
// them. The codec tests hold the one-pass DecodePush to it.
func legacyDecodePush(body []byte, maxDecompressed int64) (*fleet.Push, map[fleet.TriageKey]fleet.TriageEntry, error) {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer zr.Close()
	lr := &io.LimitedReader{R: zr, N: maxDecompressed + 1}
	var p fleet.Push
	if err := json.NewDecoder(lr).Decode(&p); err != nil && lr.N > 0 {
		return nil, nil, err
	}
	switch {
	case lr.N <= 0:
		return nil, nil, fmt.Errorf("exceeds %d bytes", maxDecompressed)
	case p.Version < fleet.SchemaVersion || p.Version > fleet.SchemaVersionDelta:
		return nil, nil, fmt.Errorf("version %d", p.Version)
	case p.Instance == "":
		return nil, nil, fmt.Errorf("no instance")
	case len(p.Races) == 0:
		return nil, nil, fmt.Errorf("no triage list")
	case p.BaseSeq != 0 && (p.Version < fleet.SchemaVersionDelta || p.BaseSeq >= p.Seq):
		return nil, nil, fmt.Errorf("bad base")
	}
	entries, err := fleet.ParseTriage(p.Races)
	if err != nil {
		return nil, nil, err
	}
	p.Races = nil
	return &p, entries, nil
}

// gzipParts compresses parts as one gzip member.
func gzipParts(parts ...string) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, part := range parts {
		zw.Write([]byte(part))
	}
	zw.Close()
	return buf.Bytes()
}

const (
	rowA  = `{"var":1,"kind":"write-read","first_site":2,"second_site":3,"first_thread":0,"second_thread":1,"count":5,"instances":1,"first_instance":"i"}`
	rowB  = `{"var":4,"kind":"write-write","first_site":9,"second_site":9,"first_thread":2,"second_thread":3,"count":2,"instances":2,"first_instance":"j"}`
	rowA2 = `{"var":1,"kind":"read-write","first_site":3,"second_site":2,"first_thread":1,"second_thread":0,"count":3,"instances":1,"first_instance":"i"}` // rowA mirrored
	rowA3 = `{"var":1,"kind":"write-read","first_site":2,"second_site":3,"first_thread":0,"second_thread":1,"count":4,"instances":2,"first_instance":"k"}`
	v1    = `{"version":1,"instance":"inst-1","epoch":9,"seq":3,"dropped":1,"races":[` + rowA + `,` + rowB + `]}`
	v2    = `{"version":2,"instance":"inst-1","epoch":9,"seq":4,"base_seq":3,"races":[` + rowB + `]}`
)

// retiredGaugesPush is v1 as older reporters sent it: with a gauges object
// under a key the push schema no longer names (testdata holds its JSON).
func retiredGaugesPush() []byte {
	body, err := os.ReadFile(filepath.Join("testdata", "push-retired-gauges.json"))
	if err != nil {
		panic(err)
	}
	return gzipParts(string(body))
}

// validPush is the push the pool-hygiene checks decode after every case.
var validPush = gzipParts(v1)

// codecCases are bodies DecodePush must accept or reject exactly as the
// legacy decode does, yielding the same envelope and entries. One kind of
// body is left out because the two differ on it: an object naming races
// twice with two lists. The legacy decode keeps the later list; DecodePush
// decodes it over the earlier one, row by row (encoding/json's rule for a
// repeated key), so a field the later row omits keeps the earlier row's
// value. No encoder produces such a body, and every row is validated
// either way.
func codecCases() map[string][]byte {
	bomb := gzipParts(`{"version":1,"instance":"inst-bomb","seq":1,"races":[`, strings.Repeat(" ", 1<<20), `]}`)
	return map[string][]byte{
		"v1":                   validPush,
		"v2 delta":             gzipParts(v2),
		"retired gauges key":   retiredGaugesPush(),
		"races null":           gzipParts(`{"version":1,"instance":"a","seq":1,"races":null}`),
		"races empty":          gzipParts(`{"version":1,"instance":"a","seq":1,"races":[]}`),
		"races missing":        gzipParts(`{"version":1,"instance":"a","seq":1}`),
		"races number":         gzipParts(`{"version":1,"instance":"a","seq":1,"races":5}`),
		"races object":         gzipParts(`{"version":1,"instance":"a","seq":1,"races":{}}`),
		"races null then list": gzipParts(`{"version":1,"instance":"a","seq":1,"races":null,"races":[` + rowA + `]}`),
		"races list then null": gzipParts(`{"version":1,"instance":"a","seq":1,"races":[` + rowA + `],"races":null}`),
		"races upper case":     gzipParts(`{"version":1,"instance":"a","seq":1,"RACES":[` + rowA + `]}`),
		"duplicate keys":       gzipParts(`{"version":1,"instance":"a","seq":1,"races":[` + rowA + `,` + rowA2 + `,` + rowA3 + `,` + rowB + `]}`),
		"unknown kind":         gzipParts(`{"version":1,"instance":"a","seq":1,"races":[` + strings.Replace(rowA, "write-read", "read-read", 1) + `]}`),
		"kind missing":         gzipParts(`{"version":1,"instance":"a","seq":1,"races":[{"count":1,"instances":1}]}`),
		"zero count":           gzipParts(`{"version":1,"instance":"a","seq":1,"races":[` + strings.Replace(rowA, `"count":5`, `"count":0`, 1) + `]}`),
		"instances over count": gzipParts(`{"version":1,"instance":"a","seq":1,"races":[` + strings.Replace(rowA, `"instances":1`, `"instances":6`, 1) + `]}`),
		"row type error":       gzipParts(`{"version":1,"instance":"a","seq":1,"races":[{"var":"x","kind":"write-write","count":1,"instances":1}]}`),
		"version 0":            gzipParts(`{"instance":"a","seq":1,"races":[]}`),
		"version 3":            gzipParts(`{"version":3,"instance":"a","seq":1,"races":[]}`),
		"no instance":          gzipParts(`{"version":1,"seq":1,"races":[]}`),
		"v1 with base":         gzipParts(`{"version":1,"instance":"a","seq":4,"base_seq":3,"races":[]}`),
		"base not before seq":  gzipParts(`{"version":2,"instance":"a","seq":3,"base_seq":3,"races":[]}`),
		"envelope type error":  gzipParts(`{"version":1,"instance":"a","seq":"1","races":[]}`),
		"top-level null":       gzipParts(`null`),
		"top-level array":      gzipParts(`[]`),
		"bad json":             gzipParts(`{"version":1,`),
		"trailing garbage":     gzipParts(v1, `}{ not json`),
		"not gzip":             []byte("not gzip"),
		"empty body":           nil,
		"truncated":            validPush[:len(validPush)/2],
		"truncated trailer":    validPush[:len(validPush)-4],
		"multistream split":    append(gzipParts(v1[:40]), gzipParts(v1[40:])...),
		"multistream extra":    append(gzipParts(v1), gzipParts(v2)...),
		"multistream garbage":  append(gzipParts(v1), "garbage"...),
		"bomb":                 bomb,
	}
}

// TestCodecDecodeMatchesLegacy holds the one-pass decode to the legacy
// decode on every case, and after each case decodes a valid push on the
// same goroutine, so a decoder a failed push returned to the pool is shown
// to decode the next push exactly as a fresh one would.
func TestCodecDecodeMatchesLegacy(t *testing.T) {
	const maxDecompressed = 64 << 10
	wantValid, wantEntries, err := legacyDecodePush(validPush, maxDecompressed)
	if err != nil {
		t.Fatalf("legacy decode of the valid push: %v", err)
	}
	for name, body := range codecCases() {
		lp, le, lerr := legacyDecodePush(body, maxDecompressed)
		p, e, err := fleet.DecodePush(bytes.NewReader(body), maxDecompressed)
		if (err == nil) != (lerr == nil) {
			t.Errorf("%s: DecodePush error %v, legacy error %v", name, err, lerr)
			continue
		}
		if err == nil && (!reflect.DeepEqual(p, lp) || !reflect.DeepEqual(e, le)) {
			t.Errorf("%s: DecodePush gave %+v %v, legacy %+v %v", name, p, e, lp, le)
		}
		p, e, err = fleet.DecodePush(bytes.NewReader(validPush), maxDecompressed)
		if err != nil || !reflect.DeepEqual(p, wantValid) || !reflect.DeepEqual(e, wantEntries) {
			t.Errorf("after %s: valid push decoded to %+v %v, %v", name, p, e, err)
		}
	}
}

// TestCodecDecodeFolds pins what the equivalence rests on for the cases
// that matter most: null is an empty list, a missing list is rejected,
// a key the envelope no longer names is dropped, and mirrored and
// repeated rows fold onto one key as ImportJSON folds them.
func TestCodecDecodeFolds(t *testing.T) {
	cases := codecCases()
	if _, e, err := fleet.DecodePush(bytes.NewReader(cases["races null"]), 0); err != nil || len(e) != 0 {
		t.Errorf(`"races": null: %v, %v; want an empty list`, e, err)
	}
	if _, _, err := fleet.DecodePush(bytes.NewReader(cases["races missing"]), 0); err == nil ||
		!strings.Contains(err.Error(), "no triage list") {
		t.Errorf("missing races: %v; want the no-triage-list rejection", err)
	}
	_, e, err := fleet.DecodePush(bytes.NewReader(cases["duplicate keys"]), 0)
	if err != nil || len(e) != 2 {
		t.Fatalf("duplicate keys: %v, %v; want two folded entries", e, err)
	}
	k := fleet.TriageKey{Var: 1, Kind: "write-read", A: 2, B: 3}
	if got := e[k]; got.Count != 12 || got.Instances != 3 || got.FirstInstance != "i" {
		t.Errorf("folded entry %+v; want count 12 over 3 instances, first reporter i", got)
	}
	want, wantEntries, _ := fleet.DecodePush(bytes.NewReader(validPush), 0)
	old, oldEntries, err := fleet.DecodePush(bytes.NewReader(cases["retired gauges key"]), 0)
	if err != nil || !reflect.DeepEqual(old, want) || !reflect.DeepEqual(oldEntries, wantEntries) {
		t.Errorf("retired gauges key: %+v %v, %v; want the push without it, %+v %v", old, oldEntries, err, want, wantEntries)
	}
}

// roundTrip encodes a push naming instance i with n rows and decodes it.
func roundTrip(i, n int) error {
	rows := make([]string, n)
	for r := range rows {
		rows[r] = fmt.Sprintf(`{"var":%d,"kind":"write-write","first_site":%d,"second_site":%d,"count":%d,"instances":1,"first_instance":"inst-%d"}`,
			r, i, r+1000, r+1, i)
	}
	in := &fleet.Push{Version: fleet.SchemaVersion, Instance: fmt.Sprintf("inst-%d", i), Seq: uint64(i + 1),
		Races: json.RawMessage("[" + strings.Join(rows, ",") + "]")}
	var buf bytes.Buffer
	if err := fleet.EncodePush(&buf, in); err != nil {
		return err
	}
	out, entries, err := fleet.DecodePush(&buf, 0)
	if err != nil {
		return err
	}
	if out.Instance != in.Instance || out.Seq != in.Seq || len(entries) != n {
		return fmt.Errorf("push %d came back as %+v with %d entries", i, out, len(entries))
	}
	for k, e := range entries {
		if e.FirstInstance != in.Instance || e.Count != int(k.Var)+1 {
			return fmt.Errorf("push %d: entry %+v mixes in another push", i, e)
		}
	}
	return nil
}

// TestCodecConcurrent encodes and decodes from several goroutines at once,
// each push distinct, so pooled state shared between them would mix pushes
// (and, under -race, be reported).
func TestCodecConcurrent(t *testing.T) {
	const workers, pushes = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < pushes; k++ {
				if err := roundTrip(w*pushes+k, 1+k%7); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// finalized reports whether obj's finalizer runs after one collection:
// the pools keep their items through one (in their victim cache), so an
// object a pooled coder still referenced would not be finalized.
func finalized(set func(fin func())) bool {
	done := make(chan struct{})
	set(func() { close(done) })
	runtime.GC()
	select {
	case <-done:
		return true
	case <-time.After(2 * time.Second):
		return false
	}
}

// TestCodecPoolReleasesBuffers requires the pooled coders to let go of the
// last request body and output buffer they were handed.
func TestCodecPoolReleasesBuffers(t *testing.T) {
	if !finalized(func(fin func()) {
		body := bytes.NewReader(validPush)
		runtime.SetFinalizer(body, func(*bytes.Reader) { fin() })
		if _, _, err := fleet.DecodePush(body, 0); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}) {
		t.Error("a pooled decoder keeps the last request body reachable")
	}
	if !finalized(func(fin func()) {
		out := new(bytes.Buffer)
		runtime.SetFinalizer(out, func(*bytes.Buffer) { fin() })
		if err := fleet.EncodePush(out, &fleet.Push{Version: 1, Instance: "a", Races: json.RawMessage("[]")}); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}) {
		t.Error("a pooled encoder keeps the last output buffer reachable")
	}
}

// deltaPush is a 2-entry delta, the shape of nearly every push a fleet
// sends once the collector accepts deltas.
func deltaPush() *fleet.Push {
	return &fleet.Push{Version: fleet.SchemaVersionDelta, Instance: "inst-00042", Epoch: 77, Seq: 9, BaseSeq: 8,
		Races: json.RawMessage("[" + rowA + "," + rowB + "]")}
}

// TestCodecDecodeAllocs bounds what decoding a 2-entry delta allocates, so
// a per-push inflater (some 45 KB of state) fails a test rather than
// hiding in a benchmark.
func TestCodecDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	var buf bytes.Buffer
	if err := fleet.EncodePush(&buf, deltaPush()); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := fleet.DecodePush(bytes.NewReader(body), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("%d bytes, %d allocations per decode", got, res.AllocsPerOp())
	if got >= 8<<10 {
		t.Errorf("decoding a 2-entry delta allocates %d bytes per push; want under 8 KB", got)
	}
}

// TestCodecEncodeAllocs bounds what EncodePush allocates in steady state,
// so a per-push compressor (some 800 KB of state) fails a test.
func TestCodecEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := deltaPush()
	var buf bytes.Buffer
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := fleet.EncodePush(&buf, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	got := res.AllocedBytesPerOp()
	t.Logf("%d bytes, %d allocations per encode", got, res.AllocsPerOp())
	if got >= 4<<10 {
		t.Errorf("encoding a push allocates %d bytes; want under 4 KB", got)
	}
}

// FuzzDecodePush feeds arbitrary bodies to DecodePush under a 64 KiB
// inflation bound. It must not panic, must reject any body whose push does
// not end within the bound inflated, must return only entries that pass
// ParseTriage's checks, and must decode a valid push correctly afterwards.
func FuzzDecodePush(f *testing.F) {
	const maxDecompressed = 64 << 10
	for _, body := range codecCases() {
		f.Add(body)
	}
	wantValid, wantEntries, err := fleet.DecodePush(bytes.NewReader(validPush), maxDecompressed)
	if err != nil {
		f.Fatalf("valid push: %v", err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p, entries, err := fleet.DecodePush(bytes.NewReader(body), maxDecompressed)
		if err == nil {
			if p.Instance == "" || p.Version < fleet.SchemaVersion || p.Version > fleet.SchemaVersionDelta {
				t.Fatalf("accepted a push with envelope %+v", p)
			}
			for k, e := range entries {
				if e.Key() != k || e.Count < 1 || e.Instances < 1 || e.Instances > e.Count {
					t.Fatalf("accepted entry %+v under key %+v", e, k)
				}
			}
			if !completeWithin(body, maxDecompressed) {
				t.Fatalf("accepted a push needing more than %d bytes inflated", maxDecompressed)
			}
		}
		p, entries, err = fleet.DecodePush(bytes.NewReader(validPush), maxDecompressed)
		if err != nil || !reflect.DeepEqual(p, wantValid) || !reflect.DeepEqual(entries, wantEntries) {
			t.Fatalf("valid push after this input decoded to %+v %v, %v", p, entries, err)
		}
	})
}

// completeWithin reports whether the first JSON value of body's inflated
// stream ends within its first limit bytes.
func completeWithin(body []byte, limit int64) bool {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return false
	}
	var v json.RawMessage
	dec := json.NewDecoder(&io.LimitedReader{R: zr, N: limit})
	return dec.Decode(&v) == nil
}
