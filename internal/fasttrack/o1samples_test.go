package fasttrack_test

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/detector/shardbase"
	"pacer/internal/dtest"
	"pacer/internal/event"
	"pacer/internal/fasttrack"
)

// replayO1 replays tr through a fresh O(1)-samples preset and returns it
// with the races it reported.
func replayO1(tr event.Trace) (*fasttrack.O1Samples, *detector.Collector) {
	c := detector.NewCollector()
	d := fasttrack.NewO1Samples(c.Report, shardbase.Config{})
	detector.Replay(d, tr)
	return d, c
}

func TestO1SamplesReadMapHoldsOneEntry(t *testing.T) {
	// Two concurrent sampled reads, then a write concurrent with both: the
	// second read overwrote the first, so one race, against the later read.
	b := dtest.NewTB().SBegin().ReadAt(0, 1, 10).ReadAt(1, 1, 11).WriteAt(2, 1, 12)
	_, c := replayO1(b.Trace)
	if c.DynamicCount() != 1 {
		t.Fatalf("races = %v, want one", c.Dynamic)
	}
	r := c.Dynamic[0]
	if r.Kind != detector.ReadWrite || r.FirstThread != 1 || r.FirstSite != 11 || r.SecondSite != 12 {
		t.Fatalf("race = %+v, want read-write against thread 1's read at site 11", r)
	}
}

func TestO1SamplesUnsampledAccessChecksWithoutRecording(t *testing.T) {
	// Variable 1 is written in a sampling period; everything after SEnd
	// runs outside one.
	b := dtest.NewTB().SBegin().WriteAt(0, 1, 10).SEnd()
	d, c := replayO1(b.Trace)
	if got := d.VarsTracked(); got != 1 {
		t.Fatalf("VarsTracked after one sampled write = %d, want 1", got)
	}
	// An unsampled read and write of variable 1 race with the sampled
	// write; unsampled accesses of fresh variables create no record.
	rest := dtest.NewTB().ReadAt(1, 1, 20).WriteAt(1, 1, 21).Read(1, 2).Write(1, 3)
	detector.Replay(d, rest.Trace)
	if got := d.VarsTracked(); got != 1 {
		t.Fatalf("VarsTracked after unsampled accesses = %d, want 1", got)
	}
	if c.DynamicCount() != 2 {
		t.Fatalf("races = %v, want write-read and write-write against the sampled write", c.Dynamic)
	}
	for i, kind := range []detector.RaceKind{detector.WriteRead, detector.WriteWrite} {
		if r := c.Dynamic[i]; r.Kind != kind || r.FirstThread != 0 || r.FirstSite != 10 {
			t.Fatalf("race %d = %+v, want %v against thread 0's write at site 10", i, r, kind)
		}
	}
	// The unsampled accesses recorded nothing: thread 0's own write is
	// still the variable's write epoch and its read map is empty, so thread
	// 0 writing and then reading it in a later epoch races with neither.
	detector.Replay(d, dtest.NewTB().Rel(0, 9).Write(0, 1).Read(0, 1).Trace)
	if c.DynamicCount() != 2 {
		t.Fatalf("an unsampled access was recorded: %v", c.Dynamic[2:])
	}
}

func TestO1SamplesIsTheOnlySampler(t *testing.T) {
	if _, ok := any(fasttrack.New(nil)).(detector.Sampler); ok {
		t.Fatal("*fasttrack.Detector implements detector.Sampler: the front-end would drive sampling periods into FASTTRACK")
	}
	if _, ok := any(fasttrack.NewO1Samples(nil, shardbase.Config{})).(detector.Sampler); !ok {
		t.Fatal("the O(1)-samples preset does not implement detector.Sampler")
	}
}

func TestO1SamplesMetadataWords(t *testing.T) {
	// Synchronization first, so the data accesses below grow no clock.
	sync := dtest.NewTB().Fork(0, 1).Fork(0, 2).Acq(1, 5).Rel(1, 5).SBegin()
	d, _ := replayO1(sync.Trace)
	syncWords := d.MetadataWords()
	// Concurrent reads of one variable would inflate FASTTRACK's read map;
	// the preset's stays one entry.
	data := dtest.NewTB().Read(0, 1).Read(1, 1).Read(2, 1).Write(1, 2).Read(2, 3).SEnd().Read(0, 4)
	detector.Replay(d, data.Trace)
	if got, want := d.VarsTracked(), 3; got != want {
		t.Fatalf("VarsTracked = %d, want %d", got, want)
	}
	if got, want := d.MetadataWords(), syncWords+6*d.VarsTracked(); got != want {
		t.Fatalf("MetadataWords = %d, want %d sync words + 6 per tracked variable = %d", got, syncWords, want)
	}
}
