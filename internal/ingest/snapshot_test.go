package ingest

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pacer/internal/fleet"
)

func TestIngestSnapshotRoundTrip(t *testing.T) {
	clock := newFakeClock()
	src := NewState(StateOptions{Clock: clock.Now})
	apply(src, "b", 2, 3, 0, entryFor(1, 10, 4, "b"), entryFor(2, 20, 1, "b"))
	apply(src, "a", 9, 7, 0, entryFor(3, 30, 2, "a"))
	p, entries := pushFor("c", 4, 1, 0, entryFor(5, 50, 6, "c"))
	p.Shadow = &fleet.ShadowGauges{Hits: 100, Vars: 7}
	p.Dropped = 2
	src.Apply(p, entries)

	dir := t.TempDir()
	if err := WriteSnapshotFile(dir, src.Snapshot()); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	snap, err := ReadSnapshotFile(dir)
	if err != nil {
		t.Fatalf("ReadSnapshotFile: %v", err)
	}
	if snap == nil || snap.Version != SnapshotVersion || len(snap.Instances) != 3 {
		t.Fatalf("read snapshot = %+v, want version %d with 3 instances", snap, SnapshotVersion)
	}

	dst := NewState(StateOptions{Clock: clock.Now})
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := racesJSON(t, dst), racesJSON(t, src); got != want {
		t.Fatalf("restored view diverged:\n got %s\nwant %s", got, want)
	}
	// The envelope bookkeeping survived too: a delta whose base is the
	// pre-restart seq lands, and the gauges are still exported.
	if got := apply(dst, "b", 2, 4, 3, entryFor(1, 10, 9, "b")); got != ApplyMerged {
		t.Fatalf("delta on restored base = %v, want merged", got)
	}
	rows := dst.Rows()
	var c *InstanceRow
	for i := range rows {
		if rows[i].Name == "c" {
			c = &rows[i]
		}
	}
	if c == nil || c.Shadow == nil || c.Shadow.Vars != 7 || c.Dropped != 2 {
		t.Fatalf("instance c's envelope did not survive restore: %+v", c)
	}
}

// TestIngestRetiredGaugesKeyIgnored pins that a push and a state file
// written by older reporters and collectors, which carried a gauges
// object under a key neither schema names any longer, still decode,
// merge and restore, with the object ignored (encoding/json drops keys a
// struct does not name), and that a restored state does not carry it
// forward.
func TestIngestRetiredGaugesKeyIgnored(t *testing.T) {
	clock := newFakeClock()
	oldRows := []fleet.TriageEntry{entryFor(1, 10, 4, "old"), entryFor(2, 20, 1, "old")}
	want := NewState(StateOptions{Clock: clock.Now})
	apply(want, "old", 5, 2, 0, oldRows...)

	body, err := os.ReadFile(filepath.Join("testdata", "push-retired-gauges.json"))
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(body)
	zw.Close()
	p, entries, err := fleet.DecodePush(&gz, 0)
	if err != nil {
		t.Fatalf("push with the retired gauges key rejected: %v", err)
	}
	src := NewState(StateOptions{Clock: clock.Now})
	if got := src.Apply(p, entries); got != ApplyMerged {
		t.Fatalf("Apply = %v, want merged", got)
	}
	if got, w := racesJSON(t, src), racesJSON(t, want); got != w {
		t.Fatalf("merged view of the old push:\n got %s\nwant %s", got, w)
	}

	raw, err := os.ReadFile(filepath.Join("testdata", "state-retired-gauges.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshotFile(dir)
	if err != nil {
		t.Fatalf("state file with the retired gauges key rejected: %v", err)
	}
	dst := NewState(StateOptions{Clock: clock.Now})
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	apply(want, "other", 3, 7, 0, entryFor(1, 10, 2, "other"))
	if got, w := racesJSON(t, dst), racesJSON(t, want); got != w {
		t.Fatalf("restored view diverged:\n got %s\nwant %s", got, w)
	}

	// The file's instances carry a key the schema does not name; a
	// snapshot of the restored state carries none of it.
	var file, again struct{ Instances []map[string]json.RawMessage }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(dst.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &again); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, in := range again.Instances {
		for k := range in {
			known[k] = true
		}
	}
	retired := 0
	for _, in := range file.Instances {
		for k := range in {
			if !known[k] {
				retired++
			}
		}
	}
	if retired != len(file.Instances) {
		t.Errorf("found %d unnamed keys over %d instances; the fixture carries one per instance and nothing may survive a restore",
			retired, len(file.Instances))
	}
	if got := apply(dst, "old", 5, 3, 2, entryFor(1, 10, 6, "old")); got != ApplyMerged {
		t.Fatalf("delta on the restored base = %v, want merged", got)
	}
}

func TestIngestSnapshotDeterministic(t *testing.T) {
	clock := newFakeClock()
	s := NewState(StateOptions{Clock: clock.Now})
	apply(s, "z", 1, 1, 0, entryFor(2, 20, 1, "z"), entryFor(1, 10, 3, "z"))
	apply(s, "a", 1, 1, 0, entryFor(4, 40, 2, "a"))
	one, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	two, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(one) != string(two) {
		t.Fatalf("snapshots of identical state differ:\n%s\n%s", one, two)
	}
}

func TestIngestSnapshotVersionAndMissing(t *testing.T) {
	dir := t.TempDir()
	if snap, err := ReadSnapshotFile(dir); snap != nil || err != nil {
		t.Fatalf("missing state file: got (%v, %v), want (nil, nil)", snap, err)
	}
	s := NewState(StateOptions{})
	if err := s.Restore(&SnapshotFile{Version: 99}); err == nil {
		t.Fatal("unknown snapshot version must be refused")
	}
	// A torn/corrupt file surfaces as an error, not silent empty state.
	if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(dir); err == nil {
		t.Fatal("corrupt state file must surface an error")
	}
}

// TestIngestServiceCloseWritesFinalSnapshot is satellite coverage for
// the SIGTERM drain path: Close persists the state without waiting for
// the periodic timer, and a successor service boots from it.
func TestIngestServiceCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	svc, err := New(Options{StateDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	apply(svc.State(), "drain", 1, 5, 0, entryFor(1, 10, 2, "drain"))
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := svc.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}

	successor, err := New(Options{StateDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatalf("successor boot: %v", err)
	}
	defer successor.Close()
	if got := successor.State().Instances(); got != 1 {
		t.Fatalf("successor restored %d instances, want 1", got)
	}
	// Seq tracking came back with the triage state: the pre-shutdown
	// push replays as stale, the next delta chains cleanly.
	if got := apply(successor.State(), "drain", 1, 5, 0, entryFor(1, 10, 2, "drain")); got != ApplyStale {
		t.Fatalf("replay across restart = %v, want stale", got)
	}
	if got := apply(successor.State(), "drain", 1, 6, 5, entryFor(1, 10, 3, "drain")); got != ApplyMerged {
		t.Fatalf("delta across restart = %v, want merged", got)
	}
}
