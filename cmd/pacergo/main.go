// Command pacergo is the front door for running PACER on real Go
// programs: it instruments packages with detector hooks at the AST level
// and drives the standard go tool with a build overlay, so user source is
// never modified on disk.
//
// Usage:
//
//	pacergo [flags] run   <package> [args...]
//	pacergo [flags] test  [test flags] <packages>
//	pacergo [flags] build [build flags] <packages>
//
// Flags:
//
//	-rate r    sampling rate in [0,1] (default 1)
//	-algo a    detection backend (default "pacer"; see pacer.Options)
//	-seed n    sampling seed (default 1)
//	-out path  append JSON-lines race reports to path
//	-quiet     suppress stderr race reports
//	-fleet url push reports to a pacerd collector
//	-keep      keep the instrumented sources and print their directory
//	-v         log what gets instrumented
//
// Flags map onto the PACER_* environment read by pacer/internal/rt; an
// explicit flag overrides the inherited environment variable. For
// `build`, configuration is read at run time from the environment of the
// produced binary instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"

	"pacer"
)

func main() {
	fs := flag.NewFlagSet("pacergo", flag.ExitOnError)
	rate := fs.Float64("rate", 1.0, "sampling rate in [0,1]")
	algo := fs.String("algo", "pacer", "detection backend")
	seed := fs.Int("seed", 1, "sampling seed")
	out := fs.String("out", "", "append JSON-lines race reports to this path")
	quiet := fs.Bool("quiet", false, "suppress stderr race reports")
	fleetURL := fs.String("fleet", "", "push reports to this pacerd collector URL")
	keep := fs.Bool("keep", false, "keep instrumented sources, print their directory")
	verbose := fs.Bool("v", false, "log what gets instrumented")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pacergo [flags] run|test|build <packages> [args...]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if algos := pacer.Algorithms(); !slices.Contains(algos, *algo) {
		fmt.Fprintf(os.Stderr, "pacergo: unknown -algo %q (known: %s)\n", *algo, strings.Join(algos, ", "))
		os.Exit(2)
	}
	args := fs.Args()
	if len(args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	sub := args[0]
	rest := args[1:]
	switch sub {
	case "run", "test", "build":
	default:
		fmt.Fprintf(os.Stderr, "pacergo: unknown command %q (want run, test, or build)\n", sub)
		os.Exit(2)
	}

	patterns, end := packageArgs(sub, rest)
	if len(patterns) == 0 {
		if sub == "run" {
			fs.Usage()
			os.Exit(2)
		}
		patterns = []string{"."}
		rest = slices.Insert(rest, end, ".")
	}

	overlay, tmpDir, err := instrumentPackages(patterns, sub == "test", *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pacergo: %v\n", err)
		os.Exit(1)
	}
	cleanup := func() {
		if *keep {
			fmt.Fprintf(os.Stderr, "pacergo: instrumented sources kept in %s\n", tmpDir)
		} else {
			os.RemoveAll(tmpDir)
		}
	}

	goArgs := append([]string{sub, "-overlay", overlay}, rest...)
	cmd := exec.Command("go", goArgs...)
	cmd.Stdin = os.Stdin
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Env = childEnv(fs, *rate, *algo, *seed, *out, *quiet, *fleetURL)
	if *verbose {
		fmt.Fprintf(os.Stderr, "pacergo: go")
		for _, a := range goArgs {
			fmt.Fprintf(os.Stderr, " %s", a)
		}
		fmt.Fprintln(os.Stderr)
	}
	err = cmd.Run()
	cleanup()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "pacergo: %v\n", err)
		os.Exit(1)
	}
}

// valueFlags are the go build and go test flags (Go 1.24: `go help
// build`, `go help testflag`) whose value may follow as the next
// argument instead of after '='.
var valueFlags = map[string]bool{
	// go build, shared by run and test.
	"C": true, "p": true, "o": true, "asmflags": true, "buildmode": true,
	"compiler": true, "covermode": true, "coverpkg": true,
	"debug-actiongraph": true, "debug-runtime-trace": true, "debug-trace": true,
	"exec": true, "gccgoflags": true, "gcflags": true, "installsuffix": true,
	"ldflags": true, "mod": true, "modfile": true, "overlay": true, "pgo": true,
	"pkgdir": true, "tags": true, "toolexec": true,
	// go test.
	"bench": true, "benchtime": true, "blockprofile": true,
	"blockprofilerate": true, "count": true, "coverprofile": true, "cpu": true,
	"cpuprofile": true, "fuzz": true, "fuzzminimizetime": true, "fuzztime": true,
	"list": true, "memprofile": true, "memprofilerate": true,
	"mutexprofile": true, "mutexprofilefraction": true, "outputdir": true,
	"parallel": true, "run": true, "shuffle": true, "skip": true,
	"timeout": true, "trace": true, "vet": true,
}

// packageArgs picks the package arguments out of a go run, test or build
// command line, parsing flags the way the go command does: a flag in
// valueFlags written without '=' consumes the next argument. `go run`
// takes one package, and what follows it belongs to the program; for
// test and build every other argument up to -args is a pattern. end is
// the index where the go command stops reading patterns.
func packageArgs(sub string, args []string) (patterns []string, end int) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if sub == "test" && (a == "-args" || a == "--args") {
			return patterns, i
		}
		if strings.HasPrefix(a, "-") {
			name := strings.TrimPrefix(strings.TrimLeft(a, "-"), "test.")
			if !strings.Contains(name, "=") && valueFlags[name] {
				i++
			}
			continue
		}
		patterns = append(patterns, a)
		if sub == "run" {
			break
		}
	}
	return patterns, len(args)
}

// childEnv builds the child process environment: the inherited
// environment with PACER_* entries overridden by explicitly-set flags
// (and populated from defaults where the environment says nothing).
func childEnv(fs *flag.FlagSet, rate float64, algo string, seed int, out string, quiet bool, fleetURL string) []string {
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	env := os.Environ()
	set := func(flagName, key, val string) {
		if !explicit[flagName] && os.Getenv(key) != "" {
			return // environment wins over a defaulted flag
		}
		if val == "" {
			return
		}
		env = append(env, key+"="+val)
	}
	set("rate", "PACER_RATE", strconv.FormatFloat(rate, 'g', -1, 64))
	set("algo", "PACER_ALGO", algo)
	set("seed", "PACER_SEED", strconv.Itoa(seed))
	set("out", "PACER_OUT", out)
	if quiet {
		set("quiet", "PACER_QUIET", "1")
	}
	set("fleet", "PACER_FLEET", fleetURL)
	return env
}
