package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
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
// included. On instrumented output it also fails when a hook copies an
// effectful operand (see copiedOperands).
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
	_, err = copiedOperands(info, f)
	return err
}

// copiedOperands counts the hooks of an instrumented file that copy an
// operand of the access or operation they hook: the R and W hooks'
// addresses and the sync hooks' channels, receivers and atomic addresses,
// each the argument after the identity slot. It fails on the first such
// operand that makes a call other than len, cap or a conversion, or a
// receive, since the hook would run it a second time. rt.OnceDo takes
// the slot too but performs the operation itself, so it copies nothing.
func copiedOperands(info *types.Info, f *ast.File) (hooks int, err error) {
	in := &instrumenter{info: info}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if err != nil || !ok || len(call.Args) < 2 {
			return err == nil
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name == "OnceDo" {
			return true
		}
		if rt, ok := sel.X.(*ast.Ident); !ok || rt.Name != rtName {
			return true
		}
		if slot, ok := call.Args[0].(*ast.UnaryExpr); !ok || types.ExprString(slot.X) != slotName {
			return true
		}
		hooks++
		if in.effectful(call.Args[1]) {
			err = fmt.Errorf("hook copies an effectful operand: %s", types.ExprString(call))
		}
		return true
	})
	return hooks, err
}

// TestHookOperandsEvalOnce instruments packages of this module through
// instrumentPackages, type-checks what it writes, and fails if any hook
// copies an effectful operand (copiedOperands).
func TestHookOperandsEvalOnce(t *testing.T) {
	pkgs := []string{"pacer/internal/sim", "pacer/internal/tracegen", "pacer/internal/workload"}
	overlay, dir, err := instrumentPackages(pkgs, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	var ov struct{ Replace map[string]string }
	if data, err := os.ReadFile(overlay); err != nil || json.Unmarshal(data, &ov) != nil {
		t.Fatalf("reading the overlay: %v", err)
	}
	listed, err := goList(false, []string{"-json"}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range listed {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			if r, ok := ov.Replace[path]; ok {
				path = r
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		if _, err := (&types.Config{Importer: exportImporter()}).Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("%s: instrumented package fails to type-check: %v", p.ImportPath, err)
		}
		hooks := 0
		for _, f := range files {
			n, err := copiedOperands(info, f)
			if err != nil {
				t.Errorf("%s: %v", fset.Position(f.Pos()).Filename, err)
			}
			hooks += n
		}
		if hooks == 0 {
			t.Errorf("%s: no hooks found; nothing was checked", p.ImportPath)
		}
		t.Logf("%s: %d hooks checked", p.ImportPath, hooks)
	}
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
	// Sync operands holding calls, in each statement form that hooks a
	// synchronization operation (testdata/evalonce/syncshapes runs them).
	f.Add(`package p

import (
	"sync"
	"sync/atomic"
)

type flag bool

var (
	chs []chan int
	c8  chan int8
	cf  chan flag
	mus []sync.Mutex
	wgs []sync.WaitGroup
	cs  []int64
	ns  []atomic.Int64
)

func at(i int) int { return i }

func syncShapes() int {
	chs[at(0)] <- at(1)
	<-chs[at(0)]
	v, ok := <-chs[at(0)]
	select {
	case chs[at(0)] <- at(2):
	case v = <-chs[at(1)]:
	}
	c8 <- 1 << at(3)
	cf <- at(1) > 0 && at(2) > 0
	close(chs[at(1)])
	for x := range chs[at(1)] {
		v += x
	}
	mus[at(0)].Lock()
	mus[at(0)].Unlock()
	wgs[at(0)].Done()
	atomic.StoreInt64(&cs[at(1)], int64(at(8)))
	ns[at(0)].Add(int64(at(9)))
	if ok {
		v += int(atomic.LoadInt64(&cs[at(1)]))
	}
	if x := <-chs[at(0)]; x > v {
		v = x
	}
	switch y := atomic.LoadInt64(&cs[at(0)]); {
	case y > 0:
		v++
	}
	switch x, ok := <-chs[at(1)]; w := any(x).(type) {
	case int:
		if ok {
			v += w
		}
	}
	for x := <-chs[at(0)]; x > 0; x-- {
		v++
	}
	return v
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
