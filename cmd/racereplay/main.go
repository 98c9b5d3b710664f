// Command racereplay records a benchmark execution as a trace file and
// replays traces under any of the repository's race detectors. Recording
// once and replaying under several detectors or sampling rates gives an
// apples-to-apples comparison on an identical interleaving.
//
// Replay mounts the chosen backend behind the public pacer front-end —
// the exact ingestion code a live application exercises — so replayed
// numbers are comparable with production behavior. Sampling periods are
// rolled by the front-end from -seed, -rate, and -period: replaying the
// same trace with the same three flags samples identical operation
// windows, making runs reproducible (vary -seed to sample different
// windows of the same recording).
//
// Usage:
//
//	racereplay record -bench eclipse -seed 3 -o eclipse.trace
//	racereplay replay -detector pacer -rate 0.03 -seed 7 eclipse.trace
//	racereplay verify -seed 17            # or: racereplay verify file.trace
//	racereplay corpus -o testdata/corpus
//	racereplay stat eclipse.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pacer"
	"pacer/internal/backends"
	"pacer/internal/detector"
	"pacer/internal/event"
	"pacer/internal/oracle"
	"pacer/internal/sim"
	"pacer/internal/tracegen"
	"pacer/internal/vclock"
	"pacer/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "corpus":
		corpus(os.Args[2:])
	case "stat":
		stat(os.Args[2:])
	case "backends":
		printBackends()
	default:
		usage()
	}
}

// printBackends prints the live mount/sampling/sync/chain matrix straight
// from the backend registry — the authoritative version of the
// docs/backends.md table (a test pins the two together).
func printBackends() {
	fmt.Printf("%-12s %-11s %-10s %-5s %s\n", "backend", "mount", "sampling", "sync", "lock-free dismissals")
	for _, c := range backends.All() {
		chain := strings.Join(c.Stages, ", ")
		if chain == "" {
			chain = "—"
		}
		sampling := "always-on"
		if c.Sampler {
			sampling = "periods"
		}
		sync := "no"
		if c.SyncNoOp {
			sync = "yes"
		}
		fmt.Printf("%-12s %-11s %-10s %-5s %s\n", c.Name, c.Mount(), sampling, sync, chain)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  racereplay record -bench <name> [-seed N] [-stream] -o <file>
  racereplay replay -detector <name> [-rate R] [-seed N] [-period P] [-serialized] <file>
  racereplay verify [-detector <name>|all] (<file> | -seed N)
  racereplay corpus [-o <dir>]
  racereplay stat <file>
  racereplay backends

replay detectors: %s
replay is reproducible: the same -detector, -rate, -period, and -seed
sample identical operation windows of the trace on every run.

verify replays a trace (a file, or the conformance generator's trace for
-seed N) through the chosen backends at rate 1.0 and judges every run
against the exact happens-before oracle; it exits nonzero on any
precision or completeness violation. corpus regenerates the checked-in
conformance corpus deterministically.

replay, verify, and stat read both trace formats: the block format (the
record default) and the streaming format that -stream and
pacer.StreamSink produce (incremental, bounded-memory recording).
`, strings.Join(backends.Names(), ", "))
	os.Exit(2)
}

// recorder adapts the detector interface to capture the event stream the
// simulator produces.
type recorder struct {
	tr event.Trace
}

func (r *recorder) add(e event.Event) { r.tr = append(r.tr, e) }

func (r *recorder) Read(t vclock.Thread, x event.Var, s event.Site, m uint32) {
	r.add(event.Event{Kind: event.Read, Thread: t, Target: uint32(x), Site: s, Method: m})
}
func (r *recorder) Write(t vclock.Thread, x event.Var, s event.Site, m uint32) {
	r.add(event.Event{Kind: event.Write, Thread: t, Target: uint32(x), Site: s, Method: m})
}
func (r *recorder) Acquire(t vclock.Thread, m event.Lock) {
	r.add(event.Event{Kind: event.Acquire, Thread: t, Target: uint32(m)})
}
func (r *recorder) Release(t vclock.Thread, m event.Lock) {
	r.add(event.Event{Kind: event.Release, Thread: t, Target: uint32(m)})
}
func (r *recorder) Fork(t, u vclock.Thread) {
	r.add(event.Event{Kind: event.Fork, Thread: t, Target: uint32(u)})
}
func (r *recorder) Join(t, u vclock.Thread) {
	r.add(event.Event{Kind: event.Join, Thread: t, Target: uint32(u)})
}
func (r *recorder) VolRead(t vclock.Thread, v event.Volatile) {
	r.add(event.Event{Kind: event.VolRead, Thread: t, Target: uint32(v)})
}
func (r *recorder) VolWrite(t vclock.Thread, v event.Volatile) {
	r.add(event.Event{Kind: event.VolWrite, Thread: t, Target: uint32(v)})
}
func (r *recorder) Name() string { return "recorder" }

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "eclipse", "benchmark to record")
	seed := fs.Int64("seed", 1, "trial seed")
	out := fs.String("o", "", "output trace file")
	stream := fs.Bool("stream", false, "write the streaming trace format (what pacer.StreamSink emits)")
	fs.Parse(args)
	if *out == "" {
		fatal("record: -o is required")
	}
	b := workload.ByName(*bench)
	if b == nil {
		fatal(fmt.Sprintf("record: unknown benchmark %q", *bench))
	}
	rec := &recorder{}
	if _, err := sim.Run(b.Program(*seed), sim.Config{
		Seed: *seed, Detector: rec, InstrumentAccesses: true,
	}); err != nil {
		fatal(err.Error())
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err.Error())
	}
	defer f.Close()
	format := "block"
	if *stream {
		format = "streaming"
		sw, err := event.NewStreamWriter(f)
		if err != nil {
			fatal(err.Error())
		}
		for _, e := range rec.tr {
			if err := sw.Write(e); err != nil {
				fatal(err.Error())
			}
		}
		if err := sw.Close(); err != nil {
			fatal(err.Error())
		}
	} else if err := event.WriteTrace(f, rec.tr); err != nil {
		fatal(err.Error())
	}
	fmt.Printf("recorded %d events from %s (seed %d) to %s (%s format)\n",
		len(rec.tr), *bench, *seed, *out, format)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	det := fs.String("detector", "pacer", "detector backend: "+strings.Join(backends.Names(), ", "))
	rate := fs.Float64("rate", 0.03, "sampling rate (backends with sampling periods)")
	seed := fs.Int64("seed", 1, "period-selection seed; fixed seed+rate+period => identical sampled windows every run")
	period := fs.Int("period", 4096, "operations per sampling-decision period")
	serialized := fs.Bool("serialized", false, "disable the concurrent front-end (single-mutex ingestion baseline)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if !backends.Known(*det) {
		fatal(fmt.Sprintf("replay: unknown detector %q (known: %s)", *det, strings.Join(backends.Names(), ", ")))
	}
	tr := readTrace(fs.Arg(0))

	// Replay through the unified public front-end: the same ingestion path
	// (fast path, shards, period roller) the live API serves, with the
	// requested backend mounted behind it. The trace is fed from one
	// goroutine, so the collector needs no extra locking.
	col := detector.NewCollector()
	d := pacer.New(pacer.Options{
		Algorithm:    *det,
		SamplingRate: *rate,
		PeriodOps:    *period,
		Seed:         *seed,
		Serialized:   *serialized,
		OnRace:       col.Report,
	})
	for _, e := range tr {
		d.Apply(e)
	}

	fmt.Printf("%s over %d events: %d dynamic races, %d distinct\n",
		d.Algorithm(), len(tr), col.DynamicCount(), col.DistinctCount())
	for _, k := range col.DistinctKeys() {
		fmt.Printf("  sites (%d, %d): %d dynamic occurrence(s)\n", k.SiteA, k.SiteB, col.PerDistinct[k])
	}
}

// verify replays a trace through race-detection backends at sampling rate
// 1.0 and checks every run against the exact happens-before ground truth
// (internal/oracle): precision for every backend, and exactness
// (report on exactly the oracle's racy variables) where
// backends.ExactAtRateOne demands it.
// The trace is either a file or — with -seed — the deterministic
// conformance-generator trace for that seed, so any failure printed by
// the conformance suite reproduces here from its seed alone.
func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	det := fs.String("detector", "all", "backend to verify, or \"all\" for every backend")
	seed := fs.Int64("seed", -1, "verify the conformance generator's trace for this seed instead of a file")
	fs.Parse(args)

	var tr event.Trace
	var source string
	switch {
	case *seed >= 0 && fs.NArg() == 0:
		tr = tracegen.Generate(tracegen.CorpusConfig(*seed))
		source = fmt.Sprintf("generated trace (seed %d)", *seed)
	case *seed < 0 && fs.NArg() == 1:
		tr = readTrace(fs.Arg(0))
		source = fs.Arg(0)
	default:
		fatal("verify: pass exactly one trace file, or -seed N")
	}

	algos := backends.Names()
	if *det != "all" {
		if !backends.Known(*det) {
			fatal(fmt.Sprintf("verify: unknown detector %q (known: %s)", *det, strings.Join(backends.Names(), ", ")))
		}
		algos = []string{*det}
	}

	rep := oracle.Analyze(tr)
	fmt.Printf("%s: %d events, %d accesses, ground truth %d distinct race(s) on %d variable(s)\n",
		source, len(tr), rep.Accesses, len(rep.Pairs), len(rep.RacyVars))

	violations := 0
	for _, algo := range algos {
		exact := backends.ExactAtRateOne(algo, tr)
		for _, serialized := range verifyModes(algo) {
			var races []detector.Race
			d := pacer.New(pacer.Options{
				Algorithm:    algo,
				SamplingRate: 1.0,
				Seed:         5,
				Serialized:   serialized,
				OnRace:       func(r detector.Race) { races = append(races, r) },
			})
			for _, e := range tr {
				d.Apply(e)
			}
			issues := rep.Check(races, exact)
			mode := "sharded"
			if serialized {
				mode = "serialized"
			}
			if len(issues) == 0 {
				fmt.Printf("  ok   %-10s %-10s (%d report(s))\n", algo, mode, len(races))
				continue
			}
			violations += len(issues)
			for _, issue := range issues {
				fmt.Printf("  FAIL %-10s %-10s %s\n", algo, mode, issue)
			}
		}
	}
	if violations > 0 {
		fatal(fmt.Sprintf("verify: %d oracle violation(s)", violations))
	}
}

// verifyModes is the conformance suite's matrix slice per backend, as the
// Serialized option of each cell: a backend with a sharded mount
// (backends.Probe) runs both front-end mounts, the rest only the
// serialized one.
func verifyModes(algo string) []bool {
	if caps, err := backends.Probe(algo); err == nil && caps.Sharded {
		return []bool{true, false}
	}
	return []bool{true}
}

// corpus (re)generates the checked-in conformance corpus. The files are
// deterministic (tracegen.CorpusFiles), and the conformance suite's
// regeneration test fails whenever the checked-in bytes drift from what
// this command writes.
func corpus(args []string) {
	fs := flag.NewFlagSet("corpus", flag.ExitOnError)
	out := fs.String("o", "testdata/corpus", "output directory")
	fs.Parse(args)
	files, err := tracegen.CorpusFiles()
	if err != nil {
		fatal(err.Error())
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err.Error())
	}
	// Drop stale traces so the directory always equals the generated set.
	entries, err := os.ReadDir(*out)
	if err != nil {
		fatal(err.Error())
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".trace") {
			if _, ok := files[name]; !ok {
				if err := os.Remove(filepath.Join(*out, name)); err != nil {
					fatal(err.Error())
				}
				fmt.Printf("removed stale %s\n", name)
			}
		}
	}
	for _, name := range tracegen.CorpusNames(files) {
		if err := os.WriteFile(filepath.Join(*out, name), files[name], 0o644); err != nil {
			fatal(err.Error())
		}
	}
	fmt.Printf("wrote %d corpus traces to %s\n", len(files), *out)
}

func stat(args []string) {
	if len(args) != 1 {
		usage()
	}
	tr := readTrace(args[0])
	counts := tr.Counts()
	fmt.Printf("%d events, %d threads\n", len(tr), tr.Threads())
	for k := event.Read; k <= event.SampleEnd; k++ {
		if counts[k] > 0 {
			fmt.Printf("  %-8s %d\n", k, counts[k])
		}
	}
}

func readTrace(path string) event.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err.Error())
	}
	defer f.Close()
	tr, err := event.ReadAnyTrace(f)
	if err != nil {
		fatal(err.Error())
	}
	return tr
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "racereplay:", msg)
	os.Exit(1)
}
