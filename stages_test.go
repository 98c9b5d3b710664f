package pacer_test

import (
	"strings"
	"testing"

	"pacer"
	"pacer/internal/event"
)

// The zero-alloc guard of the dismissal chain: one table with a row for
// every stage every backend declares. A stage
// serves the dominant case of its backend (an untracked access outside
// sampling, a same-epoch repeat, a shared read, a cold method), so if it
// starts allocating, the garbage collector pays on the hottest path there
// is, and for PACER's no-metadata stage proportionality is gone for every
// workload. Each row asserts 0 allocs/op and that its own stage dismissed
// the measured accesses: the chain is cut right after that stage, so no
// later stage can take them, and a control detector cut right before it
// sends the same accesses to the locked path, so no earlier stage did.

// stageOp is one measured access of a guard row.
type stageOp struct {
	name string
	run  func()
}

// stageGuard drives one declared stage into the state where it dismisses.
type stageGuard struct {
	algo, stage string
	rate        float64
	// setup prepares a fresh detector and returns the accesses to measure.
	setup func(d *pacer.Detector) []stageOp
	// runs is the AllocsPerRun count; minFired, when nonzero, is how many
	// of the runs+1 calls per op the chain must dismiss (all of them when
	// zero).
	runs, minFired int
}

var stageGuards = []stageGuard{
	{
		// Outside sampling (r = 0) a variable with no metadata costs two
		// state-word loads, a presence load and a counter bump.
		algo: "pacer", stage: "no-metadata", rate: 0, runs: 200,
		setup: untrackedAccesses,
	},
	{
		algo: "o1samples", stage: "no-metadata", rate: 0, runs: 200,
		setup: untrackedAccesses,
	},
	{
		// The write pins the write epoch, the read a single-entry read
		// epoch; every repeat after them is a same-epoch dismissal.
		algo: "fasttrack", stage: "same-epoch", rate: 1, runs: 200,
		setup: sameEpochAccesses,
	},
	{
		// At r = 1 every period samples, so the no-metadata stage ahead of
		// this one refuses and the repeats reach the same-epoch stage.
		algo: "o1samples", stage: "same-epoch", rate: 1, runs: 200,
		setup: sameEpochAccesses,
	},
	{
		// Unordered reads from two threads spill the read map to two
		// entries (no write, no sync between them), which publishes a zero
		// read mirror: the same-epoch stage can no longer fire, and
		// without the ownership claim every further read would serialize
		// on the variable's shard lock.
		algo: "fasttrack", stage: "owned-access", rate: 1, runs: 200,
		setup: func(d *pacer.Detector) []stageOp {
			t0 := d.NewThread()
			v := d.NewVarID()
			t1 := d.Fork(t0)
			d.Read(t0, v, 1)
			d.Read(t1, v, 2)
			return []stageOp{{"shared Read", func() { d.Read(t0, v, 3) }}}
		},
	},
	{
		// Drain the first burst (BurstLength defaults to 1000): after it
		// the rate backs off and skip gaps dominate, so at least a quarter
		// of the measured calls (at most 1/Backoff are sampled) must be
		// skips. The accesses go through Apply so they carry a Method,
		// which the public Read/Write surface does not.
		algo: "literace", stage: "burst-skip", rate: 1, runs: 2000, minFired: 500,
		setup: func(d *pacer.Detector) []stageOp {
			tid := d.NewThread()
			v := d.NewVarID()
			read := pacer.Event{Kind: event.Read, Thread: tid, Target: uint32(v), Site: 1, Method: 7}
			for i := 0; i < 1000; i++ {
				d.Apply(read)
			}
			return []stageOp{{"post-burst Read", func() { d.Apply(read) }}}
		},
	},
}

// untrackedAccesses warms the thread's counter cell and the shard
// counters, then reads and writes a variable that holds no metadata.
func untrackedAccesses(d *pacer.Detector) []stageOp {
	tid := d.NewThread()
	v := d.NewVarID()
	d.Read(tid, v, 1)
	d.Write(tid, v, 1)
	return []stageOp{
		{"Read", func() { d.Read(tid, v, 1) }},
		{"Write", func() { d.Write(tid, v, 1) }},
	}
}

// sameEpochAccesses installs a write epoch and a single-entry read epoch,
// then repeats both accesses in the same epoch.
func sameEpochAccesses(d *pacer.Detector) []stageOp {
	tid := d.NewThread()
	v := d.NewVarID()
	d.Write(tid, v, 1)
	d.Read(tid, v, 1)
	return []stageOp{
		{"Read", func() { d.Read(tid, v, 1) }},
		{"Write", func() { d.Write(tid, v, 1) }},
	}
}

// runStageGuards runs every row of the table that guards stage, under a
// subtest named for the heap, the clock allocator every row runs on.
func runStageGuards(t *testing.T, stage string) {
	t.Run("heap", func(t *testing.T) {
		for _, g := range stageGuards {
			if g.stage != stage {
				continue
			}
			t.Run(g.algo, func(t *testing.T) { g.check(t) })
		}
	})
}

// detector mounts the row's backend with its chain cut to the stages
// before the row's stage, plus the row's stage itself when with is set.
func (g stageGuard) detector(t *testing.T, with bool) *pacer.Detector {
	d := pacer.New(pacer.Options{Algorithm: g.algo, SamplingRate: g.rate})
	for i, name := range d.StageNames() {
		if name == g.stage {
			if with {
				i++
			}
			d.TruncateChain(i)
			return d
		}
	}
	t.Fatalf("%s declares no %s stage", g.algo, g.stage)
	return nil
}

func (g stageGuard) check(t *testing.T) {
	d := g.detector(t, true)
	for _, op := range g.setup(d) {
		before := d.StageDismissals()
		if got := testing.AllocsPerRun(g.runs, op.run); got != 0 {
			t.Errorf("%s %s allocates %v per op, want 0", g.stage, op.name, got)
		}
		want := uint64(g.runs + 1) // AllocsPerRun makes one warm-up call
		if g.minFired != 0 {
			want = uint64(g.minFired)
		}
		if fired := d.StageDismissals() - before; fired < want {
			t.Fatalf("%s %s: the chain dismissed %d of %d calls, want at least %d",
				g.stage, op.name, fired, g.runs+1, want)
		}
	}
	// Without this stage the same accesses reach the locked path: the
	// dismissals above were this stage's, not an earlier one's.
	ctl := g.detector(t, false)
	for _, op := range g.setup(ctl) {
		before := ctl.StageDismissals()
		for i := 0; i <= g.runs; i++ {
			op.run()
		}
		if fired := ctl.StageDismissals() - before; fired != 0 {
			t.Errorf("%s %s: the stages ahead of %s dismissed %d calls", g.stage, op.name, g.stage, fired)
		}
	}
}

// TestFastPathAllocFree guards the no-metadata stage of every backend
// that declares it.
func TestFastPathAllocFree(t *testing.T) { runStageGuards(t, "no-metadata") }

// TestEpochFastPathAllocFree guards the same-epoch stage.
func TestEpochFastPathAllocFree(t *testing.T) { runStageGuards(t, "same-epoch") }

// TestOwnedFastPathAllocFree guards the owned-access stage.
func TestOwnedFastPathAllocFree(t *testing.T) { runStageGuards(t, "owned-access") }

// TestBurstSkipAllocFree guards the burst-skip stage.
func TestBurstSkipAllocFree(t *testing.T) { runStageGuards(t, "burst-skip") }

// TestStageGuardsCoverChains pins the table to the registry: every stage
// every backend declares has a guard row, and every row guards a stage its
// backend still declares.
func TestStageGuardsCoverChains(t *testing.T) {
	guarded := map[[2]string]bool{}
	for _, g := range stageGuards {
		guarded[[2]string{g.algo, g.stage}] = true
	}
	for _, algo := range pacer.Algorithms() {
		for _, stage := range pacer.New(pacer.Options{Algorithm: algo}).StageNames() {
			key := [2]string{algo, stage}
			if !guarded[key] {
				t.Errorf("%s declares stage %s, which no zero-alloc guard covers", algo, stage)
			}
			delete(guarded, key)
		}
	}
	for key := range guarded {
		t.Errorf("guard row %s/%s names a stage its backend does not declare", key[0], key[1])
	}
}

// TestDismissalChainOptions pins how Options shape the mounted chain: a
// sharded front-end runs the backend's declared chain, and a serialized
// one runs no stage at all.
func TestDismissalChainOptions(t *testing.T) {
	for _, tc := range []struct {
		opts pacer.Options
		want string
	}{
		{pacer.Options{Algorithm: "fasttrack"}, "same-epoch owned-access"},
		{pacer.Options{Algorithm: "fasttrack", Serialized: true}, ""},
		{pacer.Options{Algorithm: "pacer", Serialized: true}, ""},
		{pacer.Options{Algorithm: "generic"}, ""},
	} {
		if got := strings.Join(pacer.New(tc.opts).StageNames(), " "); got != tc.want {
			t.Errorf("%+v: chain %q, want %q", tc.opts, got, tc.want)
		}
	}
}
