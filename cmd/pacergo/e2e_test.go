// End-to-end tests for the pacergo front door: build the wrapper once,
// then drive real programs through `pacergo run|test|build` and assert
// on the machine-readable PACER_OUT stream.
//
// The oracle-label suite mirrors the generated-trace conformance layer
// one level up the stack: testdata/programs/* port scenario shapes from
// internal/tracegen into real Go sources, with the expected verdict
// encoded in the directory name (race_* / norace_*). At rate 1 the front
// door must agree with every label; the proportionality test then checks
// that at rate 0.25 the detection frequency over many runs is binomially
// consistent with 0.25.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pacer/internal/stats"
)

var (
	pacergoBin string
	repoRoot   string
)

func TestMain(m *testing.M) {
	root, err := filepath.Abs("../..")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: resolving repo root: %v\n", err)
		os.Exit(1)
	}
	repoRoot = root
	tmp, err := os.MkdirTemp("", "pacergo-e2e-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
	pacergoBin = filepath.Join(tmp, "pacergo")
	cmd := exec.Command("go", "build", "-o", pacergoBin, "./cmd/pacergo")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: building pacergo: %v\n%s", err, out)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// raceLine mirrors the jsonRace schema written to PACER_OUT by
// internal/rt: one distinct race per line.
type raceLine struct {
	Var    uint32     `json:"var"`
	Kind   string     `json:"kind"`
	First  accessLine `json:"first"`
	Second accessLine `json:"second"`
}

type accessLine struct {
	Op     string   `json:"op"`
	Site   string   `json:"site"`
	Thread uint32   `json:"thread"`
	Stack  []string `json:"stack"`
}

func parseRaces(t *testing.T, path string) []raceLine {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatalf("reading PACER_OUT: %v", err)
	}
	var races []raceLine
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var r raceLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad PACER_OUT line %q: %v", line, err)
		}
		races = append(races, r)
	}
	return races
}

// frontDoor runs `pacergo [flags] <sub> <pkg>` from the repo root at the
// given rate with deterministic seed and backend, collecting the JSON
// race stream. Race reports never fail the child, so a non-zero exit is
// a test failure.
func frontDoor(t *testing.T, sub string, rate float64, pkg string) (races []raceLine, stdout string) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "races.json")
	args := []string{
		fmt.Sprintf("-rate=%g", rate), "-algo=pacer", "-seed=1",
		"-quiet", "-out=" + outPath, sub,
	}
	if sub == "test" {
		args = append(args, "-count=1")
	}
	args = append(args, pkg)
	cmd := exec.Command(pacergoBin, args...)
	cmd.Dir = repoRoot
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("pacergo %s %s: %v\nstderr:\n%s", sub, pkg, err, errb.String())
	}
	return parseRaces(t, outPath), out.String()
}

// TestPlantedRaceAtRateOne is the quick-gate scenario: at rate 1 the
// planted race — and only the planted race — is reported, and both
// stacks resolve to file:line in the original source.
func TestPlantedRaceAtRateOne(t *testing.T) {
	races, stdout := frontDoor(t, "run", 1, "./examples/planted")
	if !strings.Contains(stdout, "racy=200 guarded=200") {
		t.Errorf("program output corrupted by instrumentation: %q", stdout)
	}
	if len(races) == 0 {
		t.Fatal("planted race not reported at rate 1")
	}
	const racySite = "examples/planted/main.go:30"
	frameRE := regexp.MustCompile(`\.(go|s):\d+ \(.+\)$`)
	for _, r := range races {
		for _, acc := range []accessLine{r.First, r.Second} {
			if acc.Site != racySite {
				t.Errorf("race reported off the planted site: %s (%s, kind %s)", acc.Site, acc.Op, r.Kind)
			}
			if len(acc.Stack) < 2 {
				t.Errorf("stack for %s access too shallow: %v", acc.Op, acc.Stack)
				continue
			}
			if !strings.HasPrefix(acc.Stack[0], racySite+" (") {
				t.Errorf("stack frame 0 = %q, want the planted site %s", acc.Stack[0], racySite)
			}
			for _, fr := range acc.Stack {
				if !frameRE.MatchString(fr) {
					t.Errorf("frame %q is not symbolized to file:line (func)", fr)
				}
			}
		}
	}
}

// TestPlantedSilentAtRateZero: at rate 0 nothing is sampled, so nothing
// may be reported — and the program must still run correctly.
func TestPlantedSilentAtRateZero(t *testing.T) {
	races, stdout := frontDoor(t, "run", 0, "./examples/planted")
	if !strings.Contains(stdout, "racy=200 guarded=200") {
		t.Errorf("program output corrupted by instrumentation: %q", stdout)
	}
	if len(races) != 0 {
		t.Errorf("rate 0 reported %d races, want none: %+v", len(races), races)
	}
}

// TestProgramsMatchOracleLabels runs every ported scenario program under
// testdata/programs at rate 1 and checks the verdict against the label
// in the directory name. Directories containing a _test.go go through
// `pacergo test`; plain main packages through `pacergo run`.
func TestProgramsMatchOracleLabels(t *testing.T) {
	dir := filepath.Join(repoRoot, "testdata", "programs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		var want bool
		switch {
		case strings.HasPrefix(name, "race_"):
			want = true
		case strings.HasPrefix(name, "norace_"):
			want = false
		default:
			t.Errorf("testdata/programs/%s: name must start with race_ or norace_", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sub := "run"
			if m, _ := filepath.Glob(filepath.Join(dir, name, "*_test.go")); len(m) > 0 {
				sub = "test"
			}
			races, _ := frontDoor(t, sub, 1, "./testdata/programs/"+name)
			if got := len(races) > 0; got != want {
				t.Fatalf("oracle label %s: got %d reported races, want reported=%v", name, len(races), want)
			}
			prefix := "testdata/programs/" + name + "/"
			for _, r := range races {
				for _, acc := range []accessLine{r.First, r.Second} {
					if !strings.HasPrefix(acc.Site, prefix) {
						t.Errorf("race site %s outside the program's sources", acc.Site)
					}
				}
			}
		})
	}
}

// TestEvalOnceMatchesPlain builds each program of a corpus plain and
// under `pacergo run` at rate 1, and requires the same stdout: the
// instrumentation must not change what a program computes. The corpus is
// testdata/evalonce, whose address expressions and sync operands hold
// calls and receives (a hook that copied one would run it twice), and the
// testdata/programs whose output is deterministic, the norace_ main
// packages.
func TestEvalOnceMatchesPlain(t *testing.T) {
	pkgs := []string{"./testdata/evalonce/calls", "./testdata/evalonce/shapes",
		"./testdata/evalonce/synccalls", "./testdata/evalonce/syncshapes"}
	progs, err := filepath.Glob(filepath.Join(repoRoot, "testdata", "programs", "norace_*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range progs {
		if tests, _ := filepath.Glob(filepath.Join(dir, "*_test.go")); len(tests) == 0 {
			pkgs = append(pkgs, "./testdata/programs/"+filepath.Base(dir))
		}
	}
	for _, pkg := range pkgs {
		t.Run(filepath.Base(pkg), func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", pkg)
			cmd.Dir = repoRoot
			plain, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run %s: %v", pkg, err)
			}
			if _, instrumented := frontDoor(t, "run", 1, pkg); instrumented != string(plain) {
				t.Errorf("pacergo run %s printed\n%s\nwant, as go run prints,\n%s", pkg, instrumented, plain)
			}
		})
	}
}

// TestSamplingProportional measures PACER's headline property through
// the front door: build race_plain (exactly one dynamic racy pair per
// execution) once, run it many times at rate 0.25 with distinct seeds,
// and check the observed detection frequency against the binomial 95%
// interval around 0.25, widened 1.5x so the expected false-failure rate
// is negligible across CI runs.
func TestSamplingProportional(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sampling measurement skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "race_plain")
	cmd := exec.Command(pacergoBin, "build", "-o="+bin, "./testdata/programs/race_plain")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("pacergo build: %v\n%s", err, out)
	}

	const (
		rate = 0.25
		n    = 120
	)
	outDir := t.TempDir()
	hits := make([]bool, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outPath := filepath.Join(outDir, fmt.Sprintf("run%d.json", i))
			run := exec.Command(bin)
			run.Env = append(os.Environ(),
				fmt.Sprintf("PACER_RATE=%g", rate),
				"PACER_ALGO=pacer",
				fmt.Sprintf("PACER_SEED=%d", i+1),
				"PACER_QUIET=1",
				"PACER_OUT="+outPath,
			)
			if out, err := run.CombinedOutput(); err != nil {
				t.Errorf("run %d: %v\n%s", i, err, out)
				return
			}
			if st, err := os.Stat(outPath); err == nil && st.Size() > 0 {
				hits[i] = true
			}
		}(i)
	}
	wg.Wait()

	detected := 0
	for _, h := range hits {
		if h {
			detected++
		}
	}
	measured := float64(detected) / n
	tol := 1.5 * stats.BinomialCI(rate, n)
	t.Logf("detection rate %.3f over %d runs at rate %.2f (tolerance ±%.3f)", measured, n, rate, tol)
	if measured < rate-tol || measured > rate+tol {
		t.Errorf("detection rate %.3f not proportional to sampling rate %.2f (±%.3f over %d runs)",
			measured, rate, tol, n)
	}
}
