package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
)

// instrumentSource type-checks one self-contained file and returns its
// instrumented rendering.
func instrumentSource(t *testing.T, src string) string {
	t.Helper()
	out, changed, err := instrument(src)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("nothing instrumented")
	}
	return out
}

// instrument type-checks one file of package p and returns its
// instrumented rendering, and whether the rewriter changed it.
func instrument(src string) (string, bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		return "", false, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	sizes := types.SizesFor("gc", "amd64")
	pkg, err := (&types.Config{Importer: exportImporter(), Sizes: sizes}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		return "", false, err
	}
	in := &instrumenter{fset: fset, info: info, pkg: pkg, sizes: sizes, done: make(map[*ast.BlockStmt]bool)}
	in.analyzeShared([]*ast.File{f})
	out, changed := in.instrumentFile(f, "p.go", ".")
	return string(out), changed, nil
}

// typeCheck parses and type-checks one file of package p, imports
// included. On instrumented output it also fails when an R or W hook
// copies an address expression holding a call or a receive, which the
// hook would run a second time.
func typeCheck(src string) error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	if _, err = (&types.Config{Importer: exportImporter(), Sizes: types.SizesFor("gc", "amd64")}).Check("p", fset, []*ast.File{f}, info); err != nil {
		return err
	}
	in := &instrumenter{info: info}
	ast.Inspect(f, func(n ast.Node) bool {
		if err != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "R" && sel.Sel.Name != "W") {
			return true
		}
		if rt, ok := sel.X.(*ast.Ident); !ok || rt.Name != rtName {
			return true
		}
		// The address argument is unsafe.Pointer(&(lv)).
		if ptr, ok := call.Args[1].(*ast.CallExpr); ok && len(ptr.Args) == 1 && in.effectful(ptr.Args[0]) {
			err = fmt.Errorf("hook copies an effectful address: %s", types.ExprString(call))
		}
		return true
	})
	return err
}

var (
	importerOnce sync.Once
	importerGC   types.Importer
)

// exportImporter returns an importer reading compiler export data, which
// `go list -export` locates (and builds when stale), so instrumented
// output can be type-checked against the real runtime shim. The importer
// keeps every package it imported, so each path is listed once.
func exportImporter() types.Importer {
	importerOnce.Do(func() {
		importerGC = importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
			out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
			if err != nil {
				return nil, fmt.Errorf("go list -export %s: %v", path, err)
			}
			return os.Open(strings.TrimSpace(string(out)))
		})
	})
	return importerGC
}

// initScopeSources are if and switch statements whose condition or tag
// reads a name their init declares. Their read hooks must follow the
// init: hoisted above the statement, the name is out of scope.
var initScopeSources = map[string]string{
	"if": `package p

type resp struct{ code int }

func get() *resp { return &resp{code: 204} }

func check() bool {
	if r := get(); r.code != 204 {
		return false
	}
	return true
}
`,
	"switch": `package p

type resp struct{ code int }

func get() *resp { return &resp{code: 204} }

func kind() string {
	switch r := get(); r.code {
	case 200, 204:
		return "ok"
	default:
		return "error"
	}
}
`,
	"else if": `package p

type resp struct{ code int }

func get() *resp { return &resp{code: 204} }

func classify(n int) string {
	if a := get(); a.code == n {
		return "same"
	} else if b := get(); b.code > a.code+n {
		return "more"
	} else if a.code < b.code {
		return "less"
	}
	return "other"
}
`,
	"labeled": `package p

type resp struct{ code int }

func get() *resp { return &resp{code: 204} }

func loop(n int) int {
	i := 0
again:
	if r := get(); r.code > i {
		i++
		if i < n {
			goto again
		}
	}
outer:
	switch r := get(); r.code {
	case 204:
		for j := 0; j < n; j++ {
			if j > i {
				break outer
			}
		}
	}
	return i
}
`,
}

// TestRewriteInitScope: read hooks of an if condition or switch tag that
// reads a name the statement's init declares land after the init, so the
// instrumented file still type-checks.
func TestRewriteInitScope(t *testing.T) {
	for name, src := range initScopeSources {
		t.Run(name, func(t *testing.T) {
			out := instrumentSource(t, src)
			if !strings.Contains(out, "R(&__pacer_h") {
				t.Fatalf("no read hook emitted:\n%s", out)
			}
			if err := typeCheck(out); err != nil {
				t.Fatalf("instrumented output does not type-check: %v\n%s", err, out)
			}
		})
	}
}

// typeExprSources put a type where an expression may stand: method
// expressions, method values, generic instantiations, conversions and
// parenthesized types. A star or an index in a type is not a dereference
// or an element access, so none of them may be hooked.
var typeExprSources = map[string]string{
	"method expression on pointer": `package p

type T struct{ n int }

func (t *T) Get() int { return t.n }

var shared T

func use() int {
	f := (*T).Get
	return f(&shared)
}
`,
	"method expression on value": `package p

type T struct{ n int }

func (t T) Get() int { return t.n }

var shared T

func use() int {
	f := T.Get
	return f(shared)
}
`,
	"method value": `package p

type T struct{ n int }

func (t *T) Get() int { return t.n }

var shared T

func use() int {
	f := shared.Get
	return f()
}
`,
	"method value on value receiver": `package p

type T struct{ n int }

func (t T) Get() int { return t.n }

var shared T

func use() int {
	f := shared.Get
	return f()
}
`,
	"pointer-receiver call on pointer": `package p

type T struct{ n int }

func (t *T) Get() int { return t.n }

var shared *T

func use() int {
	return shared.Get()
}
`,
	"pointer-receiver call on value": `package p

type T struct{ n int }

func (t *T) Get() int { return t.n }

var shared T

func use() int {
	return shared.Get()
}
`,
	"generic instantiation": `package p

type G[E any] struct{ v E }

func Id[E any](e E) E { return e }

var shared int

func use() int {
	f := Id[int]
	g := G[int]{v: shared}
	return f(g.v)
}
`,
	"conversion and parenthesized type": `package p

type T struct{ n int }

var shared T

func use() int {
	p := (*T)(&shared)
	var q (*T) = ((*T))(p)
	return q.n + (T)(shared).n
}
`,
}

// typeExprSharedRead says, for the method rows of typeExprSources,
// whether use() reads shared: a value receiver copies it and a pointer
// operand is loaded, while a pointer receiver of a value only takes its
// address.
var typeExprSharedRead = map[string]bool{
	"method value":                     false,
	"method value on value receiver":   true,
	"pointer-receiver call on pointer": true,
	"pointer-receiver call on value":   false,
}

// TestRewriteTypeExprs: types in expression position are left alone, and
// the instrumented file still type-checks.
func TestRewriteTypeExprs(t *testing.T) {
	for name, src := range typeExprSources {
		t.Run(name, func(t *testing.T) {
			out := instrumentSource(t, src)
			if err := typeCheck(out); err != nil {
				t.Fatalf("instrumented output does not type-check: %v\n%s", err, out)
			}
			want, ok := typeExprSharedRead[name]
			if !ok {
				return
			}
			got := false
			for _, line := range strings.Split(out, "\n") {
				got = got || strings.Contains(line, ".R(") && strings.Contains(line, "&(shared)")
			}
			if got != want {
				t.Fatalf("read hook on shared = %v, want %v:\n%s", got, want, out)
			}
		})
	}
}

// FuzzRewrite: a package that type-checks must still type-check once
// instrumented.
func FuzzRewrite(f *testing.F) {
	for _, src := range initScopeSources {
		f.Add(src)
	}
	f.Add(`package p

import "sync"

type box struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (b *box) run(k int) int {
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.mu.Lock()
			defer b.mu.Unlock()
			if v := b.n; v < k {
				b.n = v + 1
			}
		}()
	}
	wg.Wait()
	switch x := b.n; {
	case x > 0:
		b.ch <- x
	}
	return <-b.ch
}
`)
	for _, src := range typeExprSources {
		f.Add(src)
	}
	// Addresses holding calls and a receive, in each statement form that
	// hooks an access (testdata/evalonce/shapes runs the same shapes).
	f.Add(`package p

type T struct {
	N   int
	Arr [4]int
}

var (
	xs, ys []int
	arr    [8]int
	m      map[string][]int
	ts     []*T
	ch     chan int
)

func at(i int) int { return i }

func ptr(i int) *T { return ts[i] }

func key() string { return "k" }

func shapes() int {
	xs[at(1)] = 5
	v := xs[at(1)]
	ptr(0).N = v
	ptr(1).N += 2
	m[key()][at(2)] = 7
	xs[at(2)] += at(3)
	xs[at(3)], ys[at(4)] = 1, 2
	xs[at(5)]++
	arr[at(1)] = 3
	ptr(0).Arr[at(2)] = 4
	xs[<-ch] = 9
	for _, ys[at(0)] = range xs {
	}
	return xs[len(ys)-1] + ys[int(arr[0])]
}
`)
	f.Fuzz(func(t *testing.T, src string) {
		out, changed, err := instrument(src)
		if err != nil || !changed {
			return
		}
		if err := typeCheck(out); err != nil {
			t.Fatalf("input type-checks, instrumented output fails typeCheck: %v\n--- input\n%s\n--- output\n%s", err, src, out)
		}
	})
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
