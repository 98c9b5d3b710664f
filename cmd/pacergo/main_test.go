package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestUnknownAlgoExitsBeforeBuild: a retired or misspelled -algo exits 2
// with the known names before anything is instrumented. PATH is empty, so
// a run that reached the go command would fail to start it and exit 1.
func TestUnknownAlgoExitsBeforeBuild(t *testing.T) {
	for _, algo := range []string{"lockset", "nosuch"} {
		cmd := exec.Command(pacergoBin, "-algo="+algo, "run", "./examples/planted")
		cmd.Dir = repoRoot
		cmd.Env = []string{"PATH="}
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-algo=%s: %v, want exit status 2\n%s", algo, err, out)
		}
		if !strings.Contains(string(out), "known: fasttrack, generic, literace, o1samples, pacer") {
			t.Errorf("-algo=%s: output does not list the known backends:\n%s", algo, out)
		}
	}
}

// TestUnknownAlgoEnvPanicsOnce: a built binary run with an unknown
// PACER_ALGO panics once, in the detector's set-up. The injected deferred
// Flush must not add a second panic over the state Init never built.
func TestUnknownAlgoEnvPanicsOnce(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "planted")
	build := exec.Command(pacergoBin, "build", "-o="+bin, "./examples/planted")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("pacergo build: %v\n%s", err, out)
	}
	run := exec.Command(bin)
	run.Env = append(os.Environ(), "PACER_ALGO=nosuch")
	out, _ := run.CombinedOutput()
	if n := strings.Count(string(out), "panic:"); n != 1 || !strings.Contains(string(out), `unknown algorithm "nosuch"`) {
		t.Errorf("want one panic naming the unknown algorithm, got %d:\n%s", n, out)
	}
}

// TestPackageArgs: flags that take a value consume the next argument,
// so the value is never mistaken for a package pattern.
func TestPackageArgs(t *testing.T) {
	for _, tc := range []struct {
		sub      string
		args     []string
		patterns []string
		end      int
	}{
		{"test", []string{"./pkg", "-run", "X"}, []string{"./pkg"}, 3},
		{"test", []string{"-run=X", "./pkg"}, []string{"./pkg"}, 2},
		{"test", []string{"-count", "1", "-v", "./a", "./b"}, []string{"./a", "./b"}, 5},
		{"build", []string{"-tags", "a,b", "./pkg"}, []string{"./pkg"}, 3},
		{"test", []string{"-v", "./pkg"}, []string{"./pkg"}, 2},
		{"test", []string{"-test.run", "X", "./pkg"}, []string{"./pkg"}, 3},
		{"test", []string{"-v"}, nil, 1},
		{"test", []string{"./pkg", "-args", "-x", "y"}, []string{"./pkg"}, 1},
		{"build", []string{"-o=bin", "./target"}, []string{"./target"}, 2},
		{"run", []string{"-tags", "t", "./cmd", "arg", "-run", "z"}, []string{"./cmd"}, 6},
	} {
		patterns, end := packageArgs(tc.sub, tc.args)
		if !slices.Equal(patterns, tc.patterns) || end != tc.end {
			t.Errorf("packageArgs(%q, %q) = %q, %d; want %q, %d",
				tc.sub, tc.args, patterns, end, tc.patterns, tc.end)
		}
	}
}
