package main

// Package discovery, type-checking, and overlay assembly. pacergo never
// modifies user source: instrumented files are printed into a temp
// directory and handed to the go tool through -overlay, which substitutes
// file contents while compiling under the original paths.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// listPkg is the subset of `go list -json` output pacergo consumes.
type listPkg struct {
	Dir          string
	ImportPath   string
	Name         string
	ForTest      string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path, Dir string }
}

// goList runs `go list` with the given extra flags and returns the
// decoded package stream.
func goList(verbose bool, extra []string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list"}, extra...)
	args = append(args, "--")
	args = append(args, patterns...)
	if verbose {
		fmt.Fprintf(os.Stderr, "pacergo: go %s\n", strings.Join(args, " "))
	}
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parsing go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goListPaths resolves patterns to import paths.
func goListPaths(verbose bool, patterns []string) ([]string, error) {
	args := append([]string{"list", "--"}, patterns...)
	if verbose {
		fmt.Fprintf(os.Stderr, "pacergo: go %s\n", strings.Join(args, " "))
	}
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list failed: %v\n%s", err, stderr.String())
	}
	return strings.Fields(string(out)), nil
}

// instrumentPackages instruments every package matching patterns (plus
// their test files when tests is set) and returns the path of the overlay
// file. The caller removes tmpDir when the build is done.
func instrumentPackages(patterns []string, tests, verbose bool) (overlayPath, tmpDir string, err error) {
	// Pass 1: which import paths did the user name?
	targetPaths, err := goListPaths(verbose, patterns)
	if err != nil {
		return "", "", err
	}
	targetSet := make(map[string]bool, len(targetPaths))
	for _, ip := range targetPaths {
		targetSet[ip] = true
	}

	// Pass 2: the full dependency closure with export data, so the
	// targets can be type-checked against compiled imports.
	flags := []string{"-json", "-export", "-deps"}
	if tests {
		flags = append(flags, "-test")
	}
	all, err := goList(verbose, flags, patterns)
	if err != nil {
		return "", "", err
	}

	exports := make(map[string]string)
	// testVariant[path] = export file of "path [path.test]", the package
	// extended with its _test.go files — what an external test package
	// actually imports.
	testVariant := make(map[string]string)
	var targets []*listPkg
	hasAugmented := make(map[string]bool)
	for _, p := range all {
		if p.Export != "" {
			if p.ForTest == "" {
				exports[p.ImportPath] = p.Export
			} else if !strings.HasSuffix(p.Name, "_test") {
				testVariant[p.ForTest] = p.Export
			}
		}
		if strings.HasSuffix(p.ImportPath, ".test") {
			continue // the generated test main package
		}
		switch {
		case tests && p.ForTest != "" && targetSet[p.ForTest]:
			targets = append(targets, p)
			if !strings.HasSuffix(p.Name, "_test") {
				hasAugmented[p.ForTest] = true
			}
		case p.ForTest == "" && targetSet[p.ImportPath]:
			targets = append(targets, p)
		}
	}
	if tests {
		// Drop the plain variant of packages that have an augmented
		// (test-extended) variant: the augmented one covers its files.
		kept := targets[:0]
		for _, p := range targets {
			if p.ForTest == "" && hasAugmented[p.ImportPath] {
				continue
			}
			kept = append(kept, p)
		}
		targets = kept
	}
	if len(targets) == 0 {
		return "", "", fmt.Errorf("no instrumentable packages match %v", patterns)
	}

	tmpDir, err = os.MkdirTemp("", "pacergo-")
	if err != nil {
		return "", "", err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(tmpDir)
		}
	}()

	fset := token.NewFileSet()
	sizes := types.SizesFor("gc", envOr("GOARCH", runtime.GOARCH))
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	replace := make(map[string]string)
	fileSeq := 0

	for _, entry := range targets {
		files, parsed, skipped, perr := parseEntry(fset, entry, tests)
		if perr != nil {
			return "", "", perr
		}
		if len(parsed) == 0 {
			continue
		}
		pkg, info, terr := typecheck(fset, entry, parsed, exports, testVariant, sizes)
		if terr != nil {
			return "", "", fmt.Errorf("type-checking %s: %v", entry.ImportPath, terr)
		}
		in := &instrumenter{
			fset:  fset,
			info:  info,
			pkg:   pkg,
			sizes: sizes,
			done:  make(map[*ast.BlockStmt]bool),
		}
		in.analyzeShared(parsed)
		for i, f := range parsed {
			out, changed := in.instrumentFile(f, files[i], moduleDir(entry))
			if !changed {
				continue
			}
			fileSeq++
			dst := filepath.Join(tmpDir, fmt.Sprintf("f%d_%s", fileSeq, filepath.Base(files[i])))
			if werr := os.WriteFile(dst, out, 0o644); werr != nil {
				return "", "", werr
			}
			replace[files[i]] = dst
			if verbose {
				fmt.Fprintf(os.Stderr, "pacergo: instrumented %s\n", files[i])
			}
		}
		if verbose && in.unhooked > 0 {
			fmt.Fprintf(os.Stderr, "pacergo: %s: %d accesses left unhooked (address holds a call or a receive)\n",
				entry.ImportPath, in.unhooked)
		}
		if verbose && len(skipped) > 0 {
			fmt.Fprintf(os.Stderr, "pacergo: passed through uninstrumented: %s\n",
				strings.Join(skipped, ", "))
		}
	}
	if len(replace) == 0 {
		return "", "", fmt.Errorf("nothing to instrument in %v", patterns)
	}

	overlay := struct {
		Replace map[string]string
	}{Replace: replace}
	ob, err := json.MarshalIndent(overlay, "", "  ")
	if err != nil {
		return "", "", err
	}
	overlayPath = filepath.Join(tmpDir, "overlay.json")
	if err = os.WriteFile(overlayPath, ob, 0o644); err != nil {
		return "", "", err
	}
	return overlayPath, tmpDir, nil
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func moduleDir(p *listPkg) string {
	if p.Module != nil && p.Module.Dir != "" {
		return p.Module.Dir
	}
	return p.Dir
}

// parseEntry parses the source files of one go list entry: GoFiles plus
// TestGoFiles and XTestGoFiles (go list splits them across variants, and
// some variants pre-merge them — the union deduplicates). Files that
// import "embed" are passed through uninstrumented: the rewriter strips
// comments, which would strip //go:embed directives.
func parseEntry(fset *token.FileSet, p *listPkg, tests bool) (paths []string, parsed []*ast.File, skipped []string, err error) {
	seen := make(map[string]bool)
	var list []string
	groups := [][]string{p.GoFiles}
	if tests {
		// Test files reference the testing package, whose export data is
		// only in the closure when go list ran with -test.
		groups = append(groups, p.TestGoFiles, p.XTestGoFiles)
	}
	for _, group := range groups {
		for _, f := range group {
			if !seen[f] {
				seen[f] = true
				list = append(list, f)
			}
		}
	}
	sort.Strings(list)
	wantName := p.Name
	for _, f := range list {
		full := f
		if !filepath.IsAbs(full) {
			full = filepath.Join(p.Dir, f)
		}
		af, perr := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("parsing %s: %v", full, perr)
		}
		// A test-variant entry's union can include files of the other
		// package (pkg vs pkg_test); keep only this entry's package.
		if wantName != "" && af.Name.Name != wantName {
			continue
		}
		if importsAny(af, "embed") {
			skipped = append(skipped, f)
			continue
		}
		paths = append(paths, full)
		parsed = append(parsed, af)
	}
	return paths, parsed, skipped, nil
}

func importsAny(f *ast.File, paths ...string) bool {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		for _, want := range paths {
			if p == want {
				return true
			}
		}
	}
	return false
}

// typecheck checks one entry's files against the export data go list
// produced for its dependencies. An external test package's import of the
// package under test resolves to the test-extended variant, which is how
// export_test.go identifiers stay visible.
func typecheck(fset *token.FileSet, entry *listPkg, files []*ast.File,
	exports, testVariant map[string]string, sizes types.Sizes) (*types.Package, *types.Info, error) {

	isXTest := strings.HasSuffix(entry.Name, "_test")
	lookup := func(path string) (io.ReadCloser, error) {
		if isXTest && path == entry.ForTest {
			if ex := testVariant[path]; ex != "" {
				return os.Open(ex)
			}
		}
		ex := exports[path]
		if ex == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(ex)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var firstErr error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    sizes,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	path := entry.ImportPath
	if i := strings.IndexByte(path, ' '); i > 0 {
		path = path[:i] // strip the " [pkg.test]" variant suffix
	}
	if isXTest {
		path += "_test"
	}
	pkg, err := conf.Check(path, fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// instrumentFile rewrites one parsed file and renders it. changed=false
// means the file needs no overlay entry (nothing instrumentable).
func (in *instrumenter) instrumentFile(f *ast.File, path, modDir string) ([]byte, bool) {
	rel, err := filepath.Rel(modDir, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = filepath.Base(path)
	}
	in.fileName = filepath.ToSlash(rel)
	in.sites = make(map[string]string)
	in.siteOrder = nil
	in.needRT = false

	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		in.rewriteFunc(fd.Body)
	}

	if !in.needRT && len(in.siteOrder) == 0 {
		return nil, false
	}

	// An instrumented main flushes buffered reports on the way out.
	if f.Name.Name == "main" {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "main" && fd.Body != nil {
				fd.Body.List = append([]ast.Stmt{
					&ast.DeferStmt{Call: &ast.CallExpr{Fun: rtSel("Flush")}},
				}, fd.Body.List...)
			}
		}
	}

	injectImports(f)
	appendSiteDecls(f, in)

	// Comments cannot survive statement insertion (the printer places
	// them by position, which the rewrite invalidated); keep only the
	// header groups before the package clause, which carry build
	// constraints.
	var keep []*ast.CommentGroup
	for _, g := range f.Comments {
		if g.End() < f.Package {
			keep = append(keep, g)
		}
	}
	f.Comments = keep
	f.Doc = nil

	var buf bytes.Buffer
	cfg := printer.Config{Tabwidth: 8}
	if err := cfg.Fprint(&buf, in.fset, f); err != nil {
		panic(fmt.Sprintf("pacergo: printing %s: %v", path, err))
	}
	return buf.Bytes(), true
}

// injectImports prepends the runtime-shim and unsafe imports. The blank
// unsafe use keeps the import legal in files whose hooks happen not to
// need it.
func injectImports(f *ast.File) {
	imp := &ast.GenDecl{
		Tok: token.IMPORT,
		Specs: []ast.Spec{
			&ast.ImportSpec{
				Name: ast.NewIdent(rtName),
				Path: &ast.BasicLit{Kind: token.STRING, Value: quote(rtPath)},
			},
			&ast.ImportSpec{
				Name: ast.NewIdent(unsafeName),
				Path: &ast.BasicLit{Kind: token.STRING, Value: quote("unsafe")},
			},
		},
	}
	f.Decls = append([]ast.Decl{imp}, f.Decls...)
}

func quote(s string) string { return fmt.Sprintf("%q", s) }

// appendSiteDecls emits the generated site table: one package-level var
// per instrumented source position, interned in the runtime depot before
// main runs.
func appendSiteDecls(f *ast.File, in *instrumenter) {
	decl := &ast.GenDecl{Tok: token.VAR}
	// Always-used anchors: unsafe may be otherwise unused, and a file
	// with hooks but no sites still imports rt.
	decl.Specs = append(decl.Specs, &ast.ValueSpec{
		Names: []*ast.Ident{ast.NewIdent("_")},
		Type: &ast.SelectorExpr{
			X: ast.NewIdent(unsafeName), Sel: ast.NewIdent("Pointer"),
		},
	})
	decl.Specs = append(decl.Specs, &ast.ValueSpec{
		Names:  []*ast.Ident{ast.NewIdent("_")},
		Values: []ast.Expr{rtSel("Site")},
	})
	for _, key := range in.siteOrder {
		loc := fmt.Sprintf("%s:%s", in.fileName, key)
		decl.Specs = append(decl.Specs, &ast.ValueSpec{
			Names: []*ast.Ident{ast.NewIdent(in.sites[key])},
			Values: []ast.Expr{&ast.CallExpr{
				Fun:  rtSel("Site"),
				Args: []ast.Expr{&ast.BasicLit{Kind: token.STRING, Value: quote(loc)}},
			}},
		})
	}
	f.Decls = append(f.Decls, decl)
}
