package pacer_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pacer"
	"pacer/internal/event"
)

// TestStreamSinkCorpusRoundTrip pins the streaming codec on the whole
// checked-in corpus: every trace decodes, re-encodes byte-identically
// (the encoding is canonical — a recording and a re-encoding of its
// decode cannot drift apart), and the re-decoded trace replays to the
// same dynamic race multiset.
func TestStreamSinkCorpusRoundTrip(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus missing (regenerate with `go run ./cmd/racereplay corpus`): %v", err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".trace" {
			continue
		}
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := event.ReadAnyTrace(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}

			var re bytes.Buffer
			ts, err := pacer.StreamSink(&re)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range tr {
				ts.Record(e)
			}
			if err := ts.Close(); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(raw, re.Bytes()) {
				t.Fatalf("re-encoding is not byte-stable: %d bytes on disk, %d re-encoded", len(raw), re.Len())
			}

			tr2, err := event.ReadAnyTrace(bytes.NewReader(re.Bytes()))
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			races1 := replayMultiset(tr)
			races2 := replayMultiset(tr2)
			if len(races1) != len(races2) {
				t.Fatalf("race multisets differ after round trip: %v vs %v", races1, races2)
			}
			for k, n := range races1 {
				if races2[k] != n {
					t.Fatalf("race %+v occurs %d times before round trip, %d after", k, n, races2[k])
				}
			}
		})
	}
}

// replayMultiset replays tr through a serialized FASTTRACK mount at rate
// 1.0 and returns the dynamic race multiset keyed by distinct identity.
func replayMultiset(tr event.Trace) map[racePair]int {
	races := map[racePair]int{}
	d := pacer.New(pacer.Options{
		Algorithm:    "fasttrack",
		SamplingRate: 1.0,
		Serialized:   true,
		Seed:         5,
		OnRace:       func(r pacer.Race) { races[pairOf(r)]++ },
	})
	for _, e := range tr {
		d.Apply(e)
	}
	return races
}
