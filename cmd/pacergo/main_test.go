package main

import (
	"slices"
	"testing"
)

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
