package detector_test

import (
	"testing"

	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/vclock"
)

// recordingDetector captures dispatched calls for the Apply tests.
type recordingDetector struct {
	calls []string
	last  event.Event
}

func (r *recordingDetector) note(s string, e event.Event) {
	r.calls = append(r.calls, s)
	r.last = e
}

func (r *recordingDetector) Read(t vclock.Thread, x event.Var, s event.Site, m uint32) {
	r.note("read", event.Event{Thread: t, Target: uint32(x), Site: s, Method: m})
}
func (r *recordingDetector) Write(t vclock.Thread, x event.Var, s event.Site, m uint32) {
	r.note("write", event.Event{Thread: t, Target: uint32(x), Site: s, Method: m})
}
func (r *recordingDetector) Acquire(t vclock.Thread, m event.Lock) {
	r.note("acquire", event.Event{Thread: t, Target: uint32(m)})
}
func (r *recordingDetector) Release(t vclock.Thread, m event.Lock) {
	r.note("release", event.Event{Thread: t, Target: uint32(m)})
}
func (r *recordingDetector) Fork(t, u vclock.Thread) {
	r.note("fork", event.Event{Thread: t, Target: uint32(u)})
}
func (r *recordingDetector) Join(t, u vclock.Thread) {
	r.note("join", event.Event{Thread: t, Target: uint32(u)})
}
func (r *recordingDetector) VolRead(t vclock.Thread, v event.Volatile) {
	r.note("volread", event.Event{Thread: t, Target: uint32(v)})
}
func (r *recordingDetector) VolWrite(t vclock.Thread, v event.Volatile) {
	r.note("volwrite", event.Event{Thread: t, Target: uint32(v)})
}
func (r *recordingDetector) Name() string { return "recording" }

// samplingDetector also records sampling transitions.
type samplingDetector struct {
	recordingDetector
	sampling bool
}

func (s *samplingDetector) SampleBegin() { s.sampling = true; s.calls = append(s.calls, "sbegin") }
func (s *samplingDetector) SampleEnd()   { s.sampling = false; s.calls = append(s.calls, "send") }
func (s *samplingDetector) Sampling() bool {
	return s.sampling
}

func TestApplyDispatch(t *testing.T) {
	d := &recordingDetector{}
	tr := event.Trace{
		{Kind: event.Read, Thread: 1, Target: 2, Site: 3, Method: 4},
		{Kind: event.Write, Thread: 1, Target: 2},
		{Kind: event.Acquire, Thread: 1, Target: 5},
		{Kind: event.Release, Thread: 1, Target: 5},
		{Kind: event.Fork, Thread: 0, Target: 1},
		{Kind: event.Join, Thread: 0, Target: 1},
		{Kind: event.VolRead, Thread: 1, Target: 6},
		{Kind: event.VolWrite, Thread: 1, Target: 6},
		{Kind: event.SampleBegin}, // ignored: not a Sampler
		{Kind: event.SampleEnd},
	}
	detector.Replay(d, tr)
	want := []string{"read", "write", "acquire", "release", "fork", "join", "volread", "volwrite"}
	if len(d.calls) != len(want) {
		t.Fatalf("calls = %v", d.calls)
	}
	for i, w := range want {
		if d.calls[i] != w {
			t.Errorf("call %d = %q, want %q", i, d.calls[i], w)
		}
	}
}

func TestApplyForwardsSamplingToSamplers(t *testing.T) {
	d := &samplingDetector{}
	detector.Apply(d, event.Event{Kind: event.SampleBegin})
	if !d.sampling {
		t.Error("SampleBegin not forwarded")
	}
	detector.Apply(d, event.Event{Kind: event.SampleEnd})
	if d.sampling {
		t.Error("SampleEnd not forwarded")
	}
}

func TestRaceStringAndKinds(t *testing.T) {
	r := detector.Race{
		Var: 7, Kind: detector.WriteWrite,
		FirstThread: 0, SecondThread: 1, FirstSite: 11, SecondSite: 22,
	}
	if got := r.String(); got != "write-write race on x7: t0@s11 vs t1@s22" {
		t.Errorf("String() = %q", got)
	}
	for k, s := range map[detector.RaceKind]string{
		detector.WriteWrite: "write-write",
		detector.WriteRead:  "write-read",
		detector.ReadWrite:  "read-write",
	} {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestDistinctKeyUnordered(t *testing.T) {
	a := detector.Race{FirstSite: 5, SecondSite: 9}
	b := detector.Race{FirstSite: 9, SecondSite: 5}
	if a.Distinct() != b.Distinct() {
		t.Error("distinct key should be unordered")
	}
}

func TestCollector(t *testing.T) {
	c := detector.NewCollector()
	c.Report(detector.Race{Var: 1, FirstSite: 1, SecondSite: 2})
	c.Report(detector.Race{Var: 1, FirstSite: 2, SecondSite: 1})
	c.Report(detector.Race{Var: 2, FirstSite: 3, SecondSite: 4})
	if c.DynamicCount() != 3 {
		t.Errorf("dynamic = %d", c.DynamicCount())
	}
	if c.DistinctCount() != 2 {
		t.Errorf("distinct = %d", c.DistinctCount())
	}
	keys := c.DistinctKeys()
	if len(keys) != 2 || keys[0].SiteA != 1 || keys[1].SiteA != 3 {
		t.Errorf("keys = %v", keys)
	}
	if c.PerDistinct[keys[0]] != 2 {
		t.Errorf("per-distinct count = %d, want 2", c.PerDistinct[keys[0]])
	}
}

func TestCountersAddAndTotals(t *testing.T) {
	var a, b detector.Counters
	a.ReadSlow[detector.Sampling] = 3
	a.ReadFast[detector.NonSampling] = 5
	a.WriteSlow[detector.Sampling] = 2
	a.SyncOps[detector.NonSampling] = 7
	a.JoinWork = 11
	a.Races = 1
	b.ReadSlow[detector.Sampling] = 1
	b.JoinWork = 4
	a.Add(&b)
	if a.TotalReads() != 9 {
		t.Errorf("TotalReads = %d, want 9", a.TotalReads())
	}
	if a.TotalWrites() != 2 {
		t.Errorf("TotalWrites = %d", a.TotalWrites())
	}
	if a.TotalSyncOps() != 7 {
		t.Errorf("TotalSyncOps = %d", a.TotalSyncOps())
	}
	if a.JoinWork != 15 {
		t.Errorf("JoinWork = %d", a.JoinWork)
	}
}

func TestPeriodOf(t *testing.T) {
	if detector.PeriodOf(true) != detector.Sampling || detector.PeriodOf(false) != detector.NonSampling {
		t.Error("PeriodOf broken")
	}
}

func TestBaseSyncThreadClockInit(t *testing.T) {
	var c detector.Counters
	s := detector.NewBaseSync(&c)
	ct := s.ThreadClock(3)
	if ct.Get(3) != 1 {
		t.Errorf("initial C_t(t) = %d, want 1", ct.Get(3))
	}
	if s.Threads() != 4 {
		t.Errorf("Threads() = %d, want 4", s.Threads())
	}
	// Same clock returned on repeat lookup.
	if s.ThreadClock(3) != ct {
		t.Error("thread clock not stable")
	}
}

func TestBaseSyncHappensBeforeEdges(t *testing.T) {
	var c detector.Counters
	s := detector.NewBaseSync(&c)
	s.ThreadClock(0)
	s.ThreadClock(1)
	s.Release(0, 1)
	t0AtRelease := uint64(1)
	s.Acquire(1, 1)
	if got := s.ThreadClock(1).Get(0); got != t0AtRelease {
		t.Errorf("acquire did not receive releaser's clock: C_1(0) = %d", got)
	}
	if s.ThreadClock(0).Get(0) != 2 {
		t.Error("release did not increment the releaser")
	}
	if c.TotalSyncOps() != 2 {
		t.Errorf("sync ops = %d", c.TotalSyncOps())
	}
	if c.DeepCopies[detector.Sampling] != 1 || c.SlowJoins[detector.Sampling] != 1 {
		t.Error("copy/join counters wrong")
	}
}

func TestBaseSyncForkJoinVolatiles(t *testing.T) {
	var c detector.Counters
	s := detector.NewBaseSync(&c)
	// fork(0,1): the child's clock receives the parent's, the parent
	// advances.
	s.Fork(0, 1)
	if s.ThreadClock(1).Get(0) != 1 {
		t.Error("fork did not propagate the parent's clock")
	}
	if s.ThreadClock(0).Get(0) != 2 {
		t.Error("fork did not increment the parent")
	}
	// Volatile write then read transfers the writer's clock.
	s.VolWrite(1, 7)
	before := s.ThreadClock(1).Get(1)
	s.VolRead(0, 7)
	if s.ThreadClock(0).Get(1) < before-1 {
		t.Error("volatile read did not receive the writer's clock")
	}
	// join(0,1) brings the child's time to the parent and advances the
	// child.
	c1 := s.ThreadClock(1).Get(1)
	s.Join(0, 1)
	if s.ThreadClock(0).Get(1) < c1 {
		t.Error("join did not propagate the child's clock")
	}
	if s.ThreadClock(1).Get(1) != c1+1 {
		t.Error("join did not increment the joined thread")
	}
	if s.MetadataWords() == 0 {
		t.Error("MetadataWords should count thread and volatile clocks")
	}
	if c.TotalSyncOps() != 4 {
		t.Errorf("sync ops = %d, want 4", c.TotalSyncOps())
	}
}

func TestRaceKindStringUnknown(t *testing.T) {
	if got := detector.RaceKind(99).String(); got != "racekind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestDistinctKeysOrdering(t *testing.T) {
	c := detector.NewCollector()
	c.Report(detector.Race{FirstSite: 9, SecondSite: 1})
	c.Report(detector.Race{FirstSite: 1, SecondSite: 9})
	c.Report(detector.Race{FirstSite: 1, SecondSite: 3})
	keys := c.DistinctKeys()
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0].SiteB != 3 || keys[1].SiteB != 9 {
		t.Errorf("keys not sorted by (SiteA, SiteB): %v", keys)
	}
}
