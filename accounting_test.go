package pacer_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacer"
	"pacer/internal/event"
)

// TestStatsGoldenPerBackend pins every Stats field, for every registered
// backend mounted serialized and sharded, to the values recorded in
// testdata/stats.golden. One corpus trace is replayed with its recorded
// sampling transitions stripped, so the seeded roller alternates sampling
// and non-sampling periods and every dismissal path the backend offers
// gets work. A change to how a backend exposes its counters, its variable
// count or its metadata size must leave every number here as it was; a
// change that means to move one updates the golden file with the lines
// this test prints.
func TestStatsGoldenPerBackend(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "corpus", "gen-003.trace"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := event.ReadAnyTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, algo := range pacer.Algorithms() {
		for _, serialized := range []bool{true, false} {
			d := pacer.New(pacer.Options{
				Algorithm:    algo,
				SamplingRate: 0.5,
				PeriodOps:    16,
				Seed:         3,
				Serialized:   serialized,
				OnRace:       func(pacer.Race) {},
			})
			for _, e := range tr {
				if e.Kind != event.SampleBegin && e.Kind != event.SampleEnd {
					d.Apply(e)
				}
			}
			mount := "sharded"
			if serialized {
				mount = "serialized"
			}
			got = append(got, fmt.Sprintf("%s/%s %+v", algo, mount, d.Stats()))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stats.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(wantLines) != len(got) {
		t.Errorf("golden file has %d rows, replay produced %d", len(wantLines), len(got))
	}
	for i, line := range got {
		if i >= len(wantLines) || wantLines[i] != line {
			t.Errorf("row %d differs from testdata/stats.golden:\n got: %s", i, line)
		}
	}
	if t.Failed() {
		t.Logf("replay rows, in golden-file form:\n%s", strings.Join(got, "\n"))
	}
}
