package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// instrumentSource type-checks one self-contained file (no imports) and
// returns its instrumented rendering.
func instrumentSource(t *testing.T, src string) string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	sizes := types.SizesFor("gc", "amd64")
	pkg, err := (&types.Config{Sizes: sizes}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	in := &instrumenter{fset: fset, info: info, pkg: pkg, sizes: sizes, done: make(map[*ast.BlockStmt]bool)}
	in.analyzeShared([]*ast.File{f})
	out, changed := in.instrumentFile(f, "p.go", ".")
	if !changed {
		t.Fatal("nothing instrumented")
	}
	return string(out)
}

// TestMarkRootStopsAtIndirection: a pointer-receiver call through a
// pointer, slice or map takes the address of the memory behind it, not
// of the local holding it, so the local gets no hooks.
func TestMarkRootStopsAtIndirection(t *testing.T) {
	out := instrumentSource(t, `package p

type group struct{ n int }

func (g *group) Add(d int) { g.n += d }

type worker struct{ wg group }

func child(w *worker) {}

func spawn(w *worker, s []group, m map[int]*group) {
	w.wg.Add(1)
	s[0].Add(1)
	m[0].Add(1)
	go child(w)
	_, _ = s, m
}
`)
	for _, v := range []string{"w", "s", "m"} {
		if strings.Contains(out, "Pointer(&("+v+"))") {
			t.Errorf("local %s is hooked though only memory it points to is address-taken:\n%s", v, out)
		}
	}
}

// TestMarkRootKeepsValueAddress: &s.f on a struct value and &a[i] on an
// array value take the local's own address, so its later accesses stay
// hooked.
func TestMarkRootKeepsValueAddress(t *testing.T) {
	out := instrumentSource(t, `package p

type pair struct{ a, b int }

func addrs() (*int, *int) {
	var s pair
	var a [4]int
	p, q := &s.a, &a[1]
	s.b = 1
	a[2] = 3
	return p, q
}
`)
	for _, want := range []string{"Pointer(&(s.b))", "Pointer(&(a[2]))"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing hook %s:\n%s", want, out)
		}
	}
}

// TestSlotPerFrame: every function body that emits an identity-taking
// hook declares its own slot at its top, a function literal included,
// and a body without such hooks declares none.
func TestSlotPerFrame(t *testing.T) {
	out := instrumentSource(t, `package p

var x int

func outer() {
	x = 1
	if x > 0 {
		x = 2
	}
	f := func() { x = 3 }
	f()
}

func quiet(n int) int { return n + 1 }
`)
	decl := "var __pacer_h __pacer_rt.Slot"
	if n := strings.Count(out, decl); n != 2 {
		t.Fatalf("%d slot declarations, want 2 (outer and its literal):\n%s", n, out)
	}
	for _, fn := range []string{"func outer() {\n\t" + decl, "func() {\n\t\t" + decl} {
		if !strings.Contains(out, fn) {
			t.Errorf("no slot declared at the top of %q:\n%s", fn, out)
		}
	}
}
