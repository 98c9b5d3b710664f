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

// legacyDecodePush is the collector's push decode written with
// encoding/json alone: a fresh gzip reader per push, the envelope decoded
// by reflection with the rows kept raw (so a repeated races key keeps the
// later list), then the rows by oracleTriage. The codec tests hold
// DecodePush to it.
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
	entries, err := oracleTriage(p.Races)
	if err != nil {
		return nil, nil, err
	}
	p.Races = nil
	return &p, entries, nil
}

// oracleTriage is ParseTriage as json.Unmarshal and the fold define it:
// rows decoded by reflection, then checked and folded by distinct race as
// pacer.ImportJSON folds them.
func oracleTriage(data []byte) (map[fleet.TriageKey]fleet.TriageEntry, error) {
	var rows []fleet.TriageEntry
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, err
	}
	out := make(map[fleet.TriageKey]fleet.TriageEntry)
	for i, e := range rows {
		kind, ok := fleet.StaticKind(e.Kind)
		if !ok {
			return nil, fmt.Errorf("row %d: kind %q", i, e.Kind)
		}
		e.Kind = kind
		if e.Count < 1 || e.Instances < 1 || e.Instances > e.Count {
			return nil, fmt.Errorf("row %d: count %d / instances %d", i, e.Count, e.Instances)
		}
		k := e.Key()
		dst, ok := out[k]
		if !ok {
			out[k] = e
			continue
		}
		dst.Count += e.Count
		dst.Instances += e.Instances
		if dst.FirstInstance == e.FirstInstance {
			dst.Instances--
		}
		out[k] = dst
	}
	return out, nil
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

// envelope wraps members in a minimal valid envelope ahead of them.
func envelope(members string) []byte {
	return gzipParts(`{"version":1,"instance":"a","seq":1,` + members + `}`)
}

// nested is an unknown member whose value nests arrays depth deep below
// the envelope (encoding/json's limit counts the envelope as depth 1).
func nested(depth int) []byte {
	return envelope(`"races":[],"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth))
}

// codecCases are bodies DecodePush must accept or reject exactly as the
// legacy decode does, yielding the same envelope and entries.
func codecCases() map[string][]byte {
	bomb := gzipParts(`{"version":1,"instance":"inst-bomb","seq":1,"races":[`, strings.Repeat(" ", 1<<20), `]}`)
	const badRow = `{"var":"x","kind":"write-write","count":1,"instances":1}`
	return map[string][]byte{
		"v1":                     validPush,
		"v2 delta":               gzipParts(v2),
		"retired gauges key":     retiredGaugesPush(),
		"races null":             envelope(`"races":null`),
		"races empty":            envelope(`"races":[]`),
		"races missing":          gzipParts(`{"version":1,"instance":"a","seq":1}`),
		"races number":           envelope(`"races":5`),
		"races object":           envelope(`"races":{}`),
		"races null then list":   envelope(`"races":null,"races":[` + rowA + `]`),
		"races list then null":   envelope(`"races":[` + rowA + `],"races":null`),
		"races list then list":   envelope(`"races":[` + rowA + `,` + rowB + `],"races":[` + rowA2 + `]`),
		"races bad then list":    envelope(`"races":[` + badRow + `],"races":[` + rowB + `]`),
		"races number then list": envelope(`"races":5,"races":[` + rowB + `]`),
		"races list then bad":    envelope(`"races":[` + rowA + `],"races":[` + badRow + `]`),
		"races upper case":       envelope(`"RACES":[` + rowA + `]`),
		"duplicate keys":         envelope(`"races":[` + rowA + `,` + rowA2 + `,` + rowA3 + `,` + rowB + `]`),
		"unknown kind":           envelope(`"races":[` + strings.Replace(rowA, "write-read", "read-read", 1) + `]`),
		"kind missing":           envelope(`"races":[{"count":1,"instances":1}]`),
		"kind repeated":          envelope(`"races":[{"kind":"bogus","kind":"write-write","count":1,"instances":1}]`),
		"zero count":             envelope(`"races":[` + strings.Replace(rowA, `"count":5`, `"count":0`, 1) + `]`),
		"instances over count":   envelope(`"races":[` + strings.Replace(rowA, `"instances":1`, `"instances":6`, 1) + `]`),
		"row type error":         envelope(`"races":[` + badRow + `]`),
		"row null":               envelope(`"races":[null]`),
		"row number":             envelope(`"races":[1]`),
		"row repeated key":       envelope(`"races":[{"var":1,"var":2,"kind":"write-write","count":1,"instances":1}]`),
		"row unknown keys":       envelope(`"races":[{"note":{"x":[1,"y"]},"kind":"read-write","count":2,"instances":1,"first_instance":"a"}]`),
		"row nulls":              envelope(`"races":[{"var":null,"kind":"write-write","count":1,"instances":1,"first_instance":null}]`),
		"folded keys": gzipParts(`{"VERSION":1,"Instance":"a","ſeq":1,"RACES":[{"VAR":1,"\u212aind":"write-write",` +
			`"First_Site":2,"ſecond_ſite":3,"count":1,"INSTANCES":1,"first_inſtance":"a"}]}`),
		"escaped strings": envelope(`"instance":"a\"b\\c\/d\u00e9\ud83d\ude00\t","races":[{"kind":"write\u002dwrite",` +
			`"count":1,"instances":1,"first_instance":"a\"b\\c\/d\u00e9\ud83d\ude00\t"}]`),
		"lone surrogates": envelope(`"instance":"x\ud800y\udc00\ud800\u0041\ud83d","races":[]`),
		"invalid utf8": envelope("\"instance\":\"a\xff\xfeb\xc3\",\"races\":[{\"kind\":\"write-write\",\"count\":1," +
			"\"instances\":1,\"first_instance\":\"\xed\xa0\x80\"}],\"\xff\":1"),
		"control char":         envelope("\"instance\":\"a\x01\",\"races\":[]"),
		"bad escape":           envelope(`"instance":"a\x","races":[]`),
		"short unicode escape": envelope(`"instance":"a\u12","races":[]`),
		"var at max":           envelope(`"races":[{"var":4294967295,"kind":"write-write","count":1,"instances":1}]`),
		"var out of range":     envelope(`"races":[{"var":4294967296,"kind":"write-write","count":1,"instances":1}]`),
		"count out of range":   envelope(`"races":[{"kind":"write-write","count":9223372036854775808,"instances":1}]`),
		"count fraction":       envelope(`"races":[{"kind":"write-write","count":1.0,"instances":1}]`),
		"count exponent":       envelope(`"races":[{"kind":"write-write","count":1e0,"instances":1}]`),
		"seq at max":           gzipParts(`{"version":1,"instance":"a","seq":18446744073709551615,"races":[]}`),
		"seq out of range":     gzipParts(`{"version":1,"instance":"a","seq":18446744073709551616,"races":[]}`),
		"seq negative":         gzipParts(`{"version":1,"instance":"a","seq":-1,"races":[]}`),
		"seq leading zero":     gzipParts(`{"version":1,"instance":"a","seq":01,"races":[]}`),
		"version string":       gzipParts(`{"version":"1","instance":"a","seq":1,"races":[]}`),
		"instance object":      envelope(`"instance":{},"races":[]`),
		"epoch array":          envelope(`"epoch":[],"races":[]`),
		"dropped bool":         envelope(`"dropped":true,"races":[]`),
		"envelope nulls":       envelope(`"instance":null,"seq":null,"epoch":null,"version":null,"shadow":null,"races":[]`),
		"shadow":               envelope(`"shadow":{"hits":1,"misses":2,"evicts":3,"vars":4,"other":[]},"races":[]`),
		"shadow repeated":      envelope(`"shadow":{"hits":1,"misses":5},"shadow":{"MISSES":2,"vars":null},"races":[]`),
		"shadow then null":     envelope(`"shadow":{"hits":1},"shadow":null,"races":[]`),
		"shadow number":        envelope(`"shadow":5,"races":[]`),
		"shadow type error":    envelope(`"shadow":{"hits":"x"},"races":[]`),
		"unknown keys":         envelope(`"extra":{"a":[1,2,{"b":null}],"c":"\u00e9"},"more":[true,false,-1.5e+3,0.25E-2],"races":[]`),
		"nesting at limit":     nested(9999),
		"nesting past limit":   nested(10000),
		"trailing comma":       envelope(`"races":[],`),
		"missing colon":        envelope(`"races" []`),
		"literal typo":         envelope(`"races":nul`),
		"surrounding space":    gzipParts(" \t\r\n", v1, " \n"),
		"version 0":            gzipParts(`{"instance":"a","seq":1,"races":[]}`),
		"version 3":            gzipParts(`{"version":3,"instance":"a","seq":1,"races":[]}`),
		"no instance":          gzipParts(`{"version":1,"seq":1,"races":[]}`),
		"v1 with base":         gzipParts(`{"version":1,"instance":"a","seq":4,"base_seq":3,"races":[]}`),
		"base not before seq":  gzipParts(`{"version":2,"instance":"a","seq":3,"base_seq":3,"races":[]}`),
		"envelope type error":  gzipParts(`{"version":1,"instance":"a","seq":"1","races":[]}`),
		"top-level null":       gzipParts(`null`),
		"top-level array":      gzipParts(`[]`),
		"top-level string":     gzipParts(`"x"`),
		"top-level number":     gzipParts(`5`),
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
	got, allocs := res.AllocedBytesPerOp(), res.AllocsPerOp()
	t.Logf("%d bytes, %d allocations per decode", got, allocs)
	if got >= 8<<10 {
		t.Errorf("decoding a 2-entry delta allocates %d bytes per push; want under 8 KB", got)
	}
	// The body's reader, then the push, its instance, the map and the
	// map's first group; the rows' one-byte first_instance strings are
	// the runtime's static ones.
	if allocs > 5 {
		t.Errorf("decoding a 2-entry delta makes %d allocations per push; want at most 5", allocs)
	}
}

// cumulativePush is a full snapshot of n rows, most first reported by the
// pushing instance itself, the shape of a reporter's first push.
func cumulativePush(n int) *fleet.Push {
	rows := make([]fleet.TriageEntry, n)
	kinds := []string{"write-write", "write-read", "read-write"}
	for i := range rows {
		first := "inst-00042"
		if i%4 == 3 {
			first = fmt.Sprintf("inst-%05d", i)
		}
		rows[i] = fleet.TriageEntry{Var: uint32(i), Kind: kinds[i%3], FirstSite: uint32(2 * i), SecondSite: uint32(2*i + 1),
			FirstThread: 1, SecondThread: 2, Count: 1 + i%5, Instances: 1, FirstInstance: first}
	}
	races, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	return &fleet.Push{Version: fleet.SchemaVersion, Instance: "inst-00042", Epoch: 77, Seq: 1, Races: races}
}

// BenchmarkDecodePush decodes the two push shapes a fleet sends: the
// 2-row delta of nearly every push, and a 160-row cumulative snapshot.
func BenchmarkDecodePush(b *testing.B) {
	for _, bc := range []struct {
		name string
		push *fleet.Push
	}{{"delta-2", deltaPush()}, {"cumulative-160", cumulativePush(160)}} {
		var buf bytes.Buffer
		if err := fleet.EncodePush(&buf, bc.push); err != nil {
			b.Fatal(err)
		}
		body := buf.Bytes()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, _, err := fleet.DecodePush(bytes.NewReader(body), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
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
// ParseTriage's checks, must accept and reject exactly as the
// encoding/json oracle does, with the same envelope and entries, whenever
// the whole inflated stream fits the bound, and must decode a valid push
// correctly afterwards.
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
		if inflatesWithin(body, maxDecompressed) {
			lp, le, lerr := legacyDecodePush(body, maxDecompressed)
			if (err == nil) != (lerr == nil) {
				t.Fatalf("DecodePush error %v, oracle error %v", err, lerr)
			}
			if err == nil && (!reflect.DeepEqual(p, lp) || !reflect.DeepEqual(entries, le)) {
				t.Fatalf("DecodePush gave %+v %v, oracle %+v %v", p, entries, lp, le)
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

// inflatesWithin reports whether body's whole inflated stream, up to the
// end or the first read error, is at most limit bytes.
func inflatesWithin(body []byte, limit int64) bool {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return true
	}
	n, _ := io.Copy(io.Discard, io.LimitReader(zr, limit+1))
	return n <= limit
}

// triageCases are triage lists ParseTriage must accept or reject exactly
// as json.Unmarshal and the fold do (FuzzParseTriage's seeds).
func triageCases() []string {
	return []string{
		`[` + rowA + `,` + rowB + `]`,
		`[` + rowA + `,` + rowA2 + `,` + rowA3 + `,` + rowB + `]`,
		`null`, `[]`, ` [ ] `, `5`, `{}`, `"x"`, ``, `[`, `[null]`, `[1]`, `[` + rowA + `,]`,
		`[` + rowA + `] x`, `[` + rowA + `]` + "\n",
		`[{"var":"x","kind":"write-write","count":1,"instances":1}]`,
		`[{"var":4294967296,"kind":"write-write","count":1,"instances":1}]`,
		`[{"\u212aind":"write-write","COUNT":1,"inſtances":1,"ſecond_site":3,"first_instance":"\u00e9\ud800"}]`,
		"[{\"kind\":\"write-read\",\"count\":2,\"instances\":1,\"first_instance\":\"a\xff\"}]",
		`[{"kind":"write-write","count":1,"instances":1,"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}]`,
		`[{"kind":"write-write","count":1,"instances":1,"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}]`,
	}
}

// checkParseTriage holds ParseTriage to json.Unmarshal plus the fold on
// data.
func checkParseTriage(t *testing.T, data []byte) {
	got, err := fleet.ParseTriage(data)
	want, werr := oracleTriage(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseTriage(%.80q): error %v, oracle error %v", data, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTriage(%.80q) = %v, oracle %v", data, got, want)
	}
}

// FuzzParseTriage holds ParseTriage to json.Unmarshal plus the fold on
// the triage cases and arbitrary input.
func FuzzParseTriage(f *testing.F) {
	for _, data := range triageCases() {
		f.Add([]byte(data))
	}
	f.Fuzz(checkParseTriage)
}
