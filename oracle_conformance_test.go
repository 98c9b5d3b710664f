package pacer_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pacer"
	"pacer/internal/backends"
	"pacer/internal/detector/shardbase"
	"pacer/internal/event"
	"pacer/internal/oracle"
	"pacer/internal/tracegen"
	"pacer/internal/vclock"
)

// The oracle conformance layer replays generated and checked-in traces
// through the full backend × {serialized, sharded} matrix
// at sampling rate 1.0 and judges every run against the exact
// happens-before ground truth (internal/oracle):
//
//   - Precision, for every precise backend in every configuration: each
//     reported distinct race must be in the oracle's racing-pair multiset.
//   - Exactness, for the precise-and-complete backends: the set of
//     variables reported racy must equal the oracle's racy-variable set
//     (the "first race per variable at rate 1.0" guarantee).
//
// Failures are reproducible: each one prints a `racereplay verify`
// invocation, and when $PACER_FAILURE_DIR is set the failing trace is
// written there in the streaming format (CI uploads the directory as an
// artifact).

// matrixCell is one front-end configuration of the conformance matrix.
type matrixCell struct {
	serialized bool
}

func (c matrixCell) String() string {
	if c.serialized {
		return "serialized"
	}
	return "sharded"
}

// matrixCellsFor returns the cells that are behaviorally distinct for a
// backend. Every backend with a sharded mount (backends.Probe) runs both
// front-end mounts. The remaining backends are driven serialized whatever
// the options say, so one cell covers them.
func matrixCellsFor(algo string) []matrixCell {
	if caps, err := backends.Probe(algo); err == nil && caps.Sharded {
		return []matrixCell{{serialized: true}, {serialized: false}}
	}
	return []matrixCell{{serialized: true}}
}

// replayOracle replays tr through the public front-end at rate 1.0 with
// algo mounted and returns the reported races.
func replayOracle(algo string, tr event.Trace, cell matrixCell, shards int) []pacer.Race {
	var races []pacer.Race
	d := pacer.New(pacer.Options{
		Algorithm:    algo,
		SamplingRate: 1.0,
		Seed:         5,
		Serialized:   cell.serialized,
		Shards:       shards,
		OnRace:       func(r pacer.Race) { races = append(races, r) },
	})
	for _, e := range tr {
		d.Apply(e)
	}
	return races
}

// saveFailureTrace writes tr to $PACER_FAILURE_DIR (when set) in the
// streaming format so the CI failure artifact reproduces the run, and
// logs the reproduction command.
func saveFailureTrace(t *testing.T, name string, tr event.Trace) {
	t.Helper()
	dir := os.Getenv("PACER_FAILURE_DIR")
	if dir == "" {
		t.Logf("set PACER_FAILURE_DIR to save the failing trace for racereplay verify")
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("failure dir: %v", err)
		return
	}
	path := filepath.Join(dir, name+".trace")
	f, err := os.Create(path)
	if err != nil {
		t.Logf("failure artifact: %v", err)
		return
	}
	defer f.Close()
	sw, err := event.NewStreamWriter(f)
	if err != nil {
		t.Logf("failure artifact: %v", err)
		return
	}
	for _, e := range tr {
		if err := sw.Write(e); err != nil {
			t.Logf("failure artifact: %v", err)
			return
		}
	}
	if err := sw.Close(); err != nil {
		t.Logf("failure artifact: %v", err)
		return
	}
	t.Logf("failing trace saved: reproduce with `go run ./cmd/racereplay verify %s`", path)
}

// checkAgainstOracle replays tr under every cell of algo's matrix slice
// and judges each run against the ground truth.
func checkAgainstOracle(t *testing.T, algo string, tr event.Trace, rep *oracle.Report, label, repro string) {
	t.Helper()
	exact := backends.ExactAtRateOne(algo, tr)
	for _, cell := range matrixCellsFor(algo) {
		races := replayOracle(algo, tr, cell, 0)
		issues := rep.Check(races, exact)
		if len(issues) == 0 {
			continue
		}
		for _, issue := range issues {
			t.Errorf("%s [%s %s]: %s", label, algo, cell, issue)
		}
		saveFailureTrace(t, fmt.Sprintf("%s-%s", label, algo), tr)
		t.Fatalf("%s [%s %s]: %d oracle violation(s); reproduce: %s",
			label, algo, cell, len(issues), repro)
	}
}

// TestConformanceOracleGenerated sweeps ≥300 seeded generator traces
// through the full backend matrix. The seeds are chunked into parallel
// subtests; each chunk analyzes its traces once and replays them under
// every backend and cell.
func TestConformanceOracleGenerated(t *testing.T) {
	const seeds = 300
	const chunks = 10
	algos := pacer.Algorithms()
	for c := 0; c < chunks; c++ {
		c := c
		t.Run(fmt.Sprintf("chunk%02d", c), func(t *testing.T) {
			t.Parallel()
			for seed := int64(c); seed < seeds; seed += chunks {
				tr := tracegen.Generate(tracegen.CorpusConfig(seed))
				rep := oracle.Analyze(tr)
				label := fmt.Sprintf("gen-seed-%d", seed)
				repro := fmt.Sprintf("go run ./cmd/racereplay verify -seed %d", seed)
				for _, algo := range algos {
					checkAgainstOracle(t, algo, tr, rep, label, repro)
				}
			}
		})
	}
}

// TestConformanceOracleCorpus replays every checked-in trace under
// testdata/corpus through the full backend matrix against the ground
// truth. The corpus is the recorded scenario slice (ported Go
// race-detector suite shapes) plus a slice of generated traces.
func TestConformanceOracleCorpus(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatalf("corpus missing (regenerate with `go run ./cmd/racereplay corpus`): %v", err)
	}
	algos := pacer.Algorithms()
	n := 0
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".trace" {
			continue
		}
		n++
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f, err := os.Open(filepath.Join("testdata", "corpus", name))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tr, err := event.ReadAnyTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			rep := oracle.Analyze(tr)
			repro := fmt.Sprintf("go run ./cmd/racereplay verify testdata/corpus/%s", name)
			for _, algo := range algos {
				checkAgainstOracle(t, algo, tr, rep, name, repro)
			}
		})
	}
	if n < 45 {
		t.Fatalf("corpus holds only %d traces; expected the scenario slice (40+) plus generated seeds", n)
	}
}

// TestConformanceCorpusRegeneration pins the corpus files to their
// deterministic regeneration: `go run ./cmd/racereplay corpus` must be a
// no-op on a clean tree. A mismatch means a recording-path or generator
// change silently altered the corpus — regenerate and review the diff.
func TestConformanceCorpusRegeneration(t *testing.T) {
	files, err := tracegen.CorpusFiles()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "corpus")
	onDisk := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus missing (regenerate with `go run ./cmd/racereplay corpus`): %v", err)
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".trace" {
			continue
		}
		onDisk[ent.Name()] = true
		want, ok := files[ent.Name()]
		if !ok {
			t.Errorf("stray corpus file %s (not produced by tracegen.CorpusFiles)", ent.Name())
			continue
		}
		got, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: on-disk bytes differ from deterministic regeneration (run `go run ./cmd/racereplay corpus`)", ent.Name())
		}
	}
	for name := range files {
		if !onDisk[name] {
			t.Errorf("corpus file %s missing on disk (run `go run ./cmd/racereplay corpus`)", name)
		}
	}
}

// permuteThreads applies a bijection over thread identifiers to every
// event of tr (Thread fields plus Fork/Join targets).
func permuteThreads(tr event.Trace, pi func(vclock.Thread) vclock.Thread) event.Trace {
	out := make(event.Trace, len(tr))
	copy(out, tr)
	for i := range out {
		out[i].Thread = pi(out[i].Thread)
		if out[i].Kind == event.Fork || out[i].Kind == event.Join {
			out[i].Target = uint32(pi(vclock.Thread(out[i].Target)))
		}
	}
	return out
}

// varSet projects race reports onto their variable set.
func varSet(races []pacer.Race) map[pacer.VarID]bool {
	m := map[pacer.VarID]bool{}
	for _, r := range races {
		m[r.Var] = true
	}
	return m
}

// pairSet projects race reports onto their distinct identities.
func pairSet(races []pacer.Race) map[racePair]bool {
	m := map[racePair]bool{}
	for _, r := range races {
		m[pairOf(r)] = true
	}
	return m
}

// TestConformanceThreadPermutation is the metamorphic check that thread
// identifiers carry no detection-relevant information: renaming the
// threads of a trace by a bijection must leave the oracle's racing-pair
// multiset identical (sites do not encode thread identity) and must leave
// each exact backend's reported variable set identical.
func TestConformanceThreadPermutation(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		tr := tracegen.Generate(tracegen.CorpusConfig(seed))
		nthreads := tr.Threads()
		reverse := func(u vclock.Thread) vclock.Thread { return vclock.Thread(nthreads-1) - u }
		ptr := permuteThreads(tr, reverse)

		rep, prep := oracle.Analyze(tr), oracle.Analyze(ptr)
		if len(rep.Pairs) != len(prep.Pairs) {
			t.Fatalf("seed %d: oracle pair sets differ under thread permutation: %d vs %d",
				seed, len(rep.Pairs), len(prep.Pairs))
		}
		for p, n := range rep.Pairs {
			if prep.Pairs[p] != n {
				t.Fatalf("seed %d: oracle multiplicity of %v changed under permutation: %d vs %d",
					seed, p, n, prep.Pairs[p])
			}
		}

		for _, algo := range []string{"pacer", "fasttrack", "generic"} {
			got := varSet(replayOracle(algo, tr, matrixCell{serialized: true}, 0))
			pgot := varSet(replayOracle(algo, ptr, matrixCell{serialized: true}, 0))
			if len(got) != len(pgot) {
				t.Fatalf("seed %d %s: reported variable set changed under thread permutation: %v vs %v",
					seed, algo, got, pgot)
			}
			for v := range got {
				if !pgot[v] {
					t.Fatalf("seed %d %s: x%d reported only without permutation", seed, algo, v)
				}
			}
		}
	}
}

// TestConformanceShardInvariance is the metamorphic check that the shard
// count is a pure performance knob: replaying one trace with 1, 8, and
// 256 variable-metadata shards must report the identical distinct race
// set (the generated traces include shard-collision clusters, so a
// striping bug that conflates or drops per-shard metadata would show).
func TestConformanceShardInvariance(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		tr := tracegen.Generate(tracegen.CorpusConfig(seed))
		rep := oracle.Analyze(tr)
		for _, algo := range []string{"pacer", "fasttrack", "literace", "o1samples"} {
			var base map[racePair]bool
			for _, shards := range []int{1, 8, 256} {
				got := pairSet(replayOracle(algo, tr, matrixCell{}, shards))
				for p := range got {
					if rep.Pairs[oracle.MakePair(p.v, p.a, p.b)] == 0 {
						t.Fatalf("seed %d %s shards=%d: phantom race %+v", seed, algo, shards, p)
					}
				}
				if base == nil {
					base = got
					continue
				}
				if len(got) != len(base) {
					t.Fatalf("seed %d %s: distinct races vary with shard count: %d (shards=1) vs %d (shards=%d)",
						seed, algo, len(base), len(got), shards)
				}
				for p := range base {
					if !got[p] {
						t.Fatalf("seed %d %s shards=%d: race %+v lost relative to shards=1", seed, algo, shards, p)
					}
				}
			}
		}
	}
}

// TestFastTrackVarCapFrontEnd pins the record table's bound through the
// front-end: a variable at or above shardbase.TableBound still detects
// races (through the locked path), and the lock-free same-epoch fast path
// engages only for variables below it.
func TestFastTrackVarCapFrontEnd(t *testing.T) {
	var races []pacer.Race
	d := pacer.New(pacer.Options{
		Algorithm: "fasttrack",
		OnRace:    func(r pacer.Race) { races = append(races, r) },
	})
	t0 := d.NewThread()
	t1 := d.Fork(t0)
	low, high := pacer.VarID(shardbase.TableBound-1), pacer.VarID(shardbase.TableBound)

	// Same-epoch repeats on the low variable engage the lock-free fast
	// path; the high variable must never (it is past the bound).
	d.Write(t0, low, 1)
	d.Write(t0, low, 1)
	fast := d.Stats().FastPathWrites
	if fast == 0 {
		t.Fatal("below-bound variable never took the same-epoch fast path")
	}
	d.Write(t0, high, 2)
	d.Write(t0, high, 2)
	if got := d.Stats().FastPathWrites; got != fast {
		t.Fatalf("above-bound variable took the same-epoch fast path (%d fast writes, want %d)", got, fast)
	}

	// Races on both sides of the bound must be detected identically.
	d.Write(t1, low, 3)
	d.Write(t1, high, 4)
	vars := varSet(races)
	if !vars[low] || !vars[high] {
		t.Fatalf("bound changed detection: races reported on %v, want both x%d and x%d", vars, low, high)
	}
}
