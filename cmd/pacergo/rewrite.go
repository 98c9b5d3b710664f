package main

// The rewriter: given a type-checked package, thread pacer runtime hooks
// through its function bodies. The rules keep the detector's precision
// pitch intact — a hook placement that could manufacture a false positive
// is always resolved the other way (an extra happens-before edge may
// hide a race, never invent one; a missing edge can invent one):
//
//   - read hooks run BEFORE the statement that performs the read, write
//     hooks AFTER it. A statement like `x = <-ch` synchronizes before the
//     write lands, so hooking the write first would report races the
//     program cannot have.
//   - only shared memory is instrumented: package-level variables,
//     closure-captured and address-taken locals, pointer dereferences,
//     slice/array elements, and fields reached through pointers. A local
//     that never escapes cannot race.
//   - sync operations are hooked on the side of the real operation that
//     makes the edge sound: Lock after it returns, Unlock before it runs,
//     channel sends publish before the send, receives acquire after.
//   - expressions that the statement may not evaluate (the right side of
//     && and ||) get no hooks: a hook must never evaluate — and possibly
//     panic on — an expression the program would have skipped.
//   - a hook copies the address expression of its access, so an address
//     holding a call or a receive is never hooked: the copy would run the
//     call or the receive a second time. The access is left unhooked
//     (and counted) while the reads that evaluating its address performs
//     are still hooked.
//   - a sync operation is never left unhooked: its effectful operands are
//     hoisted into temporaries (see hoist). A labeled loop, switch or
//     select keeps its label, so a goto to it skips them (documented gap).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

const (
	rtName     = "__pacer_rt"
	unsafeName = "__pacer_unsafe"
	slotName   = "__pacer_h"
	rtPath     = "pacer/internal/rt"
)

// instrumenter rewrites one type-checked package.
type instrumenter struct {
	fset  *token.FileSet
	info  *types.Info
	pkg   *types.Package
	sizes types.Sizes

	// shared marks objects whose memory is reachable from more than one
	// goroutine: address-taken or closure-captured variables (package
	// level variables are shared by definition and checked dynamically).
	shared map[types.Object]bool

	// done guards against rewriting a block twice (function literals are
	// reachable both through statement recursion and expression walks).
	done map[*ast.BlockStmt]bool

	// siteSeq numbers generated site variables. Package-level: site vars
	// from every file of a package land in the same scope, so the counter
	// must never reset between files.
	siteSeq int

	// per-file state
	fileName  string            // site prefix, e.g. "examples/planted/main.go"
	sites     map[string]string // "line:col" -> generated var name
	siteOrder []string
	needRT    bool
	tmpSeq    int

	// slotUsed records that the function body being rewritten emitted a
	// hook taking its identity slot, so the body must declare one.
	slotUsed bool

	// unhooked counts accesses left unhooked because their address
	// expression holds a call or a receive (see effectful).
	unhooked int
}

// --- site interning ---

// site returns the generated site variable name for pos, interning it.
func (in *instrumenter) site(pos token.Pos) *ast.Ident {
	p := in.fset.Position(pos)
	key := fmt.Sprintf("%d:%d", p.Line, p.Column)
	name, ok := in.sites[key]
	if !ok {
		in.siteSeq++
		name = fmt.Sprintf("__pacer_s%d", in.siteSeq)
		in.sites[key] = name
		in.siteOrder = append(in.siteOrder, key)
	}
	in.needRT = true
	return ast.NewIdent(name)
}

func (in *instrumenter) temp(kind string) string {
	in.tmpSeq++
	return fmt.Sprintf("__pacer_%s%d", kind, in.tmpSeq)
}

// --- AST construction helpers (all nodes position-free) ---

func rtSel(name string) ast.Expr {
	return &ast.SelectorExpr{X: ast.NewIdent(rtName), Sel: ast.NewIdent(name)}
}

func rtCall(name string, args ...ast.Expr) *ast.ExprStmt {
	return &ast.ExprStmt{X: &ast.CallExpr{Fun: rtSel(name), Args: args}}
}

// slotRef builds &__pacer_h, the current frame's identity slot, and
// marks the frame as needing its declaration.
func (in *instrumenter) slotRef() ast.Expr {
	in.slotUsed = true
	in.needRT = true
	return &ast.UnaryExpr{Op: token.AND, X: ast.NewIdent(slotName)}
}

// slotG builds __pacer_h.G(), the frame's identity resolved now: the
// argument deferred helpers take, so a defer never holds the slot.
func (in *instrumenter) slotG() ast.Expr {
	in.slotUsed = true
	in.needRT = true
	return &ast.CallExpr{Fun: &ast.SelectorExpr{X: ast.NewIdent(slotName), Sel: ast.NewIdent("G")}}
}

// hook builds a call to an identity-taking rt hook, passing the current
// frame's slot first.
func (in *instrumenter) hook(name string, args ...ast.Expr) ast.Stmt {
	return rtCall(name, append([]ast.Expr{in.slotRef()}, args...)...)
}

func intLit(n int64) ast.Expr {
	return &ast.BasicLit{Kind: token.INT, Value: strconv.FormatInt(n, 10)}
}

// unsafeAddr builds __pacer_unsafe.Pointer(&lv).
func unsafeAddr(lv ast.Expr) ast.Expr {
	return unsafeCast(&ast.UnaryExpr{Op: token.AND, X: &ast.ParenExpr{X: lv}})
}

// accessHook builds rt.R/rt.W(unsafe.Pointer(&lv), size, site).
func (in *instrumenter) accessHook(fn string, lv ast.Expr, t types.Type, pos token.Pos) ast.Stmt {
	size, ok := in.safeSize(t)
	if !ok {
		size = 1
	}
	return in.hook(fn, unsafeAddr(lv), intLit(size), in.site(pos))
}

// safeSize is Sizeof with generics guarded: a type containing type
// parameters has no size at instrumentation time.
func (in *instrumenter) safeSize(t types.Type) (n int64, ok bool) {
	if t == nil {
		return 0, false
	}
	defer func() {
		if recover() != nil {
			n, ok = 0, false
		}
	}()
	return in.sizes.Sizeof(t), true
}

// --- shared-variable analysis ---

// analyzeShared walks the package's files marking locals whose address
// escapes their goroutine: explicit &x, capture by a function literal,
// and the implicit &x of calling a pointer-receiver method on an
// addressable value.
func (in *instrumenter) analyzeShared(files []*ast.File) {
	in.shared = make(map[types.Object]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					in.markRoot(x.X)
				}
			case *ast.FuncLit:
				in.markCaptured(x)
			case *ast.SelectorExpr:
				if in.implicitAddr(x) {
					in.markRoot(x.X)
				}
			}
			return true
		})
	}
}

// markRoot marks the variable at the base of an lvalue chain as shared.
// The walk stops at pointer, slice and map indirection: &p.f, &s[i] and
// the like take the address of memory p or s points to, not of the
// variable itself.
func (in *instrumenter) markRoot(e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if in.indirect(x.X) {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if in.indirect(x.X) {
				return
			}
			e = x.X
		case *ast.Ident:
			if v, ok := in.objOf(x).(*types.Var); ok && !v.IsField() {
				in.shared[v] = true
			}
			return
		default:
			return
		}
	}
}

// indirect reports whether selecting or indexing through e leaves e's own
// storage: e is a pointer, slice or map.
func (in *instrumenter) indirect(e ast.Expr) bool {
	t := in.info.TypeOf(e)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// markCaptured marks every variable a function literal uses that was
// declared outside the literal.
func (in *instrumenter) markCaptured(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := in.objOf(id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			in.shared[v] = true
		}
		return true
	})
}

func (in *instrumenter) objOf(id *ast.Ident) types.Object {
	if o := in.info.Uses[id]; o != nil {
		return o
	}
	return in.info.Defs[id]
}

// sharedVar reports whether a variable's memory can be reached by another
// goroutine: package-level, or locally marked by analyzeShared.
func (in *instrumenter) sharedVar(v *types.Var) bool {
	if v.IsField() {
		return false
	}
	if in.shared[v] {
		return true
	}
	// Package-level variables live in the package scope.
	return v.Parent() != nil && (v.Parent() == in.pkg.Scope() ||
		(v.Pkg() != nil && v.Parent() == v.Pkg().Scope()))
}

// --- hookable lvalues ---

// target resolves e to the lvalue to hook and its type, or ok=false when
// the expression is not instrumentable shared memory. Map element
// accesses hook the map variable itself (elements have no address).
func (in *instrumenter) target(e ast.Expr) (lv ast.Expr, t types.Type, ok bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return in.target(x.X)
	case *ast.Ident:
		if v, okv := in.objOf(x).(*types.Var); okv && v.Name() != "_" && in.sharedVar(v) {
			return e, v.Type(), true
		}
	case *ast.StarExpr:
		// In a method expression such as (*T).M the star builds a type;
		// nothing is dereferenced.
		if tv := in.info.Types[e]; tv.Type != nil && !tv.IsType() {
			return e, tv.Type, true
		}
	case *ast.SelectorExpr:
		if sel, oks := in.info.Selections[x]; oks {
			if sel.Kind() != types.FieldVal {
				return nil, nil, false
			}
			if _, ptr := in.info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return e, in.info.TypeOf(e), true
			}
			if _, _, okb := in.target(x.X); okb && in.addressable(x.X) {
				return e, in.info.TypeOf(e), true
			}
			return nil, nil, false
		}
		// Qualified identifier: another package's variable is package
		// level, hence shared.
		if v, okv := in.info.Uses[x.Sel].(*types.Var); okv && !v.IsField() {
			return e, v.Type(), true
		}
	case *ast.IndexExpr:
		bt := in.info.TypeOf(x.X)
		if bt == nil {
			return nil, nil, false
		}
		switch u := bt.Underlying().(type) {
		case *types.Slice:
			return e, u.Elem(), true
		case *types.Pointer:
			if arr, oka := u.Elem().Underlying().(*types.Array); oka {
				return e, arr.Elem(), true
			}
		case *types.Array:
			if _, _, okb := in.target(x.X); okb && in.addressable(x.X) {
				return e, u.Elem(), true
			}
		case *types.Map:
			return in.target(x.X)
		}
	}
	return nil, nil, false
}

// addressable approximates the spec's addressability for the lvalues the
// rewriter hooks (&lv must compile).
func (in *instrumenter) addressable(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return in.addressable(x.X)
	case *ast.Ident:
		v, ok := in.objOf(x).(*types.Var)
		return ok && !v.IsField()
	case *ast.StarExpr:
		return !in.info.Types[e].IsType()
	case *ast.SelectorExpr:
		if sel, ok := in.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if _, ptr := in.info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
				return true
			}
			return in.addressable(x.X)
		}
		_, ok := in.info.Uses[x.Sel].(*types.Var)
		return ok
	case *ast.IndexExpr:
		bt := in.info.TypeOf(x.X)
		if bt == nil {
			return false
		}
		switch u := bt.Underlying().(type) {
		case *types.Slice:
			return true
		case *types.Pointer:
			_, ok := u.Elem().Underlying().(*types.Array)
			return ok
		case *types.Array:
			return in.addressable(x.X)
		}
	}
	return false
}

// effectful reports whether evaluating e can do more than read memory:
// it holds a call other than len, cap or a conversion, or a receive. A
// hook copying e would run that call or receive a second time.
func (in *instrumenter) effectful(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its body runs only if something calls it
		case *ast.UnaryExpr:
			found = found || x.Op == token.ARROW
		case *ast.CallExpr:
			found = found || !in.pureCall(x)
		}
		return !found
	})
	return found
}

// pureCall reports whether call is a conversion or a call of the len or
// cap builtin.
func (in *instrumenter) pureCall(call *ast.CallExpr) bool {
	if in.info.Types[call.Fun].IsType() {
		return true
	}
	fun := ast.Unparen(call.Fun)
	return in.isBuiltin(fun, "len") || in.isBuiltin(fun, "cap")
}

// addressReads appends R hooks for the reads that evaluating the address
// lv performs, for an access left unhooked: a pointer or slice header
// loaded on the way, and the indices and call operands. The array or
// struct variable that holds the access is not read as a whole, so it
// gets no hook.
func (in *instrumenter) addressReads(lv ast.Expr, out *[]ast.Stmt) {
	switch x := lv.(type) {
	case *ast.ParenExpr:
		in.addressReads(x.X, out)
	case *ast.Ident:
	case *ast.SelectorExpr:
		if in.indirect(x.X) {
			in.readHooks(x.X, out)
		} else {
			in.addressReads(x.X, out)
		}
	case *ast.IndexExpr:
		if in.indirect(x.X) {
			in.readHooks(x.X, out)
		} else {
			in.addressReads(x.X, out)
		}
		in.readHooks(x.Index, out)
	case *ast.StarExpr:
		in.readHooks(x.X, out)
	default:
		in.readHooks(lv, out)
	}
}

// --- read collection ---

// readHooks appends R hooks for every hookable read in e that the
// enclosing statement unconditionally evaluates.
func (in *instrumenter) readHooks(e ast.Expr, out *[]ast.Stmt) {
	if e == nil {
		return
	}
	if lv, t, ok := in.target(e); ok && in.addressable(lv) {
		ix, isIndex := e.(*ast.IndexExpr)
		if in.effectful(lv) {
			in.unhooked++
			in.addressReads(lv, out)
			if isIndex && lv != e {
				in.readHooks(ix.Index, out) // a map key
			}
			return
		}
		*out = append(*out, in.accessHook("R", lv, t, e.Pos()))
		// The index of an element access is itself evaluated.
		if isIndex {
			in.readHooks(ix.Index, out)
		}
		return
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		in.readHooks(x.X, out)
	case *ast.BinaryExpr:
		in.readHooks(x.X, out)
		// The right side of a short-circuit operator may never run; a
		// hook there could evaluate (and panic on) a skipped expression.
		if x.Op != token.LAND && x.Op != token.LOR {
			in.readHooks(x.Y, out)
		}
	case *ast.UnaryExpr:
		// &x is not a read of x; a nested <-ch is handled only at
		// statement level (documented gap).
		if x.Op != token.AND && x.Op != token.ARROW {
			in.readHooks(x.X, out)
		}
	case *ast.CallExpr:
		for _, a := range x.Args {
			in.readHooks(a, out)
		}
		// A method call reads its operand unless it only takes the
		// operand's address (hooking that could report a race the
		// program cannot have).
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && in.readsReceiver(sel) {
			in.readHooks(sel.X, out)
		}
	case *ast.SelectorExpr:
		// A pointer-receiver method value of a non-pointer operand only
		// takes the operand's address; any other selection evaluates it.
		if !in.implicitAddr(x) {
			in.readHooks(x.X, out)
		}
	case *ast.IndexExpr:
		in.readHooks(x.X, out)
		in.readHooks(x.Index, out)
	case *ast.SliceExpr:
		in.readHooks(x.X, out)
		in.readHooks(x.Low, out)
		in.readHooks(x.High, out)
		in.readHooks(x.Max, out)
	case *ast.TypeAssertExpr:
		in.readHooks(x.X, out)
	case *ast.StarExpr:
		in.readHooks(x.X, out)
	case *ast.CompositeLit:
		isMap := false
		if t := in.info.TypeOf(x); t != nil {
			_, isMap = t.Underlying().(*types.Map)
		}
		for _, el := range x.Elts {
			if kv, okkv := el.(*ast.KeyValueExpr); okkv {
				if isMap {
					in.readHooks(kv.Key, out)
				}
				in.readHooks(kv.Value, out)
				continue
			}
			in.readHooks(el, out)
		}
	case *ast.FuncLit:
		// Bodies are rewritten separately (funcLits); creating the
		// closure reads nothing.
	}
}

// writeHook returns the W hook for lv, or nil when it is not hookable
// or its address is effectful.
func (in *instrumenter) writeHook(e ast.Expr) ast.Stmt {
	lv, t, ok := in.target(e)
	if !ok || !in.addressable(lv) {
		return nil
	}
	if in.effectful(lv) {
		in.unhooked++
		return nil
	}
	return in.accessHook("W", lv, t, e.Pos())
}

// funcLits rewrites the bodies of function literals appearing anywhere
// inside n (each exactly once).
func (in *instrumenter) funcLits(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok {
			in.rewriteFunc(fl.Body)
			return false
		}
		return true
	})
}

// --- statement rewriting ---

// rewriteFunc rewrites a function body (a FuncDecl's or a FuncLit's) as
// one identity frame: when any hook in it takes the identity slot, the
// body starts with `var __pacer_h rt.Slot`. A function literal never
// shares its enclosing frame's slot, since a closure may run on another
// goroutine; its own declaration shadows the outer one.
func (in *instrumenter) rewriteFunc(body *ast.BlockStmt) {
	if body == nil || in.done[body] {
		return
	}
	outer := in.slotUsed
	in.slotUsed = false
	in.rewriteBlock(body)
	if in.slotUsed {
		decl := &ast.DeclStmt{Decl: &ast.GenDecl{
			Tok: token.VAR,
			Specs: []ast.Spec{&ast.ValueSpec{
				Names: []*ast.Ident{ast.NewIdent(slotName)},
				Type:  rtSel("Slot"),
			}},
		}}
		body.List = append([]ast.Stmt{decl}, body.List...)
	}
	in.slotUsed = outer
}

func (in *instrumenter) rewriteBlock(b *ast.BlockStmt) {
	if b == nil || in.done[b] {
		return
	}
	in.done[b] = true
	var out []ast.Stmt
	for _, s := range b.List {
		out = append(out, in.rewriteStmt(s)...)
	}
	b.List = out
}

func (in *instrumenter) rewriteStmt(s ast.Stmt) []ast.Stmt {
	var pre, post []ast.Stmt
	// wrap is set when an if or switch init moved out of the statement;
	// a block around the result keeps the names it declares scoped.
	wrap := false
	switch st := s.(type) {
	case *ast.BlockStmt:
		in.rewriteBlock(st)

	case *ast.LabeledStmt:
		inner := in.rewriteStmt(st.Stmt)
		switch last := len(inner) - 1; st.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// The statement comes last. A switch moved into a block with its
			// init keeps a label a `break` names; else the block takes it.
			if b, ok := inner[last].(*ast.BlockStmt); ok && breaksTo(st) {
				b.List[len(b.List)-1] = st
				return inner
			}
			st.Stmt, inner[last] = inner[last], st
		default:
			// Only a goto names the label, and it must run the hooks and
			// temporaries emitted ahead of the statement.
			st.Stmt, inner[0] = inner[0], st
		}
		return inner

	case *ast.ExprStmt:
		in.funcLits(st)
		if call, ok := st.X.(*ast.CallExpr); ok {
			if p, q, handled := in.syncCall(call); handled {
				return concat(p, s, q)
			}
			in.readHooks(st.X, &pre)
			break
		}
		if ch := recvOperand(st.X); ch != nil {
			in.hoist(&pre, ch)
			in.readHooks(*ch, &pre)
			pre = append(pre, in.hook("ChanRecvPre", *ch))
			post = append(post, in.hook("ChanRecv", *ch))
			break
		}
		in.readHooks(st.X, &pre)

	case *ast.SendStmt:
		in.funcLits(st)
		in.hoist(&pre, &st.Chan, &st.Value)
		in.readHooks(st.Chan, &pre)
		in.readHooks(st.Value, &pre)
		pre = append(pre, in.hook("ChanSend", st.Chan))
		post = append(post, in.hook("ChanSendDone", st.Chan))

	case *ast.AssignStmt:
		in.funcLits(st)
		var ch *ast.Expr
		if len(st.Rhs) == 1 {
			ch = recvOperand(st.Rhs[0])
		}
		if ch != nil {
			in.hoist(&pre, ch)
			in.readHooks(*ch, &pre)
			pre = append(pre, in.hook("ChanRecvPre", *ch))
			post = append(post, in.hook("ChanRecv", *ch))
		} else {
			var atomicHandled bool
			if len(st.Rhs) == 1 {
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					if p, q, handled := in.syncCall(call); handled {
						pre, post, atomicHandled = p, q, true
					}
				}
			}
			if !atomicHandled {
				for _, r := range st.Rhs {
					in.readHooks(r, &pre)
				}
			}
		}
		if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
			// Compound assignment (+= etc.) also reads its target.
			in.readHooks(st.Lhs[0], &pre)
		}
		for _, l := range st.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
				continue
			}
			if st.Tok == token.DEFINE {
				// A fresh variable is only worth hooking if it escapes.
				if id, ok := l.(*ast.Ident); ok {
					if v, okv := in.info.Defs[id].(*types.Var); !okv || !in.sharedVar(v) {
						continue
					}
				}
			} else {
				// The indices of an element write are reads.
				if ix, ok := l.(*ast.IndexExpr); ok {
					in.readHooks(ix.Index, &pre)
				}
			}
			if h := in.writeHook(l); h != nil {
				post = append(post, h)
			}
		}

	case *ast.IncDecStmt:
		in.funcLits(st)
		in.readHooks(st.X, &pre)
		if h := in.writeHook(st.X); h != nil {
			post = append(post, h)
		}

	case *ast.DeclStmt:
		in.funcLits(st)
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, okv := spec.(*ast.ValueSpec)
				if !okv {
					continue
				}
				for _, val := range vs.Values {
					in.readHooks(val, &pre)
				}
				for _, name := range vs.Names {
					if v, okd := in.info.Defs[name].(*types.Var); okd && in.sharedVar(v) {
						if h := in.writeHook(name); h != nil {
							post = append(post, h)
						}
					}
				}
			}
		}

	case *ast.ReturnStmt:
		in.funcLits(st)
		for _, r := range st.Results {
			in.readHooks(r, &pre)
		}

	case *ast.IfStmt:
		wrap = in.rewriteInit(&st.Init, &pre)
		in.funcLits(st.Cond)
		var cond []ast.Stmt
		in.readHooks(st.Cond, &cond)
		wrap = afterInit(&st.Init, &pre, cond) || wrap
		in.rewriteBlock(st.Body)
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			in.rewriteBlock(e)
		case *ast.IfStmt:
			inner := in.rewriteStmt(e)
			if len(inner) == 1 {
				st.Else = inner[0]
			} else {
				st.Else = &ast.BlockStmt{List: inner}
			}
		}

	case *ast.ForStmt:
		// Cond and Post run once per iteration; hooks for them would
		// need to run inside the loop header, which Go cannot express
		// without restructuring the loop (documented gap). The init stays
		// in the header: each iteration gets its own copy of a variable it
		// declares, so moving it out would change the program.
		in.funcLits(st.Init)
		in.funcLits(st.Cond)
		in.funcLits(st.Post)
		if st.Init != nil {
			in.initReads(st.Init, &pre)
		}
		in.rewriteBlock(st.Body)

	case *ast.RangeStmt:
		in.funcLits(st.X)
		isChan := false
		if t := in.info.TypeOf(st.X); t != nil {
			_, isChan = t.Underlying().(*types.Chan)
		}
		if isChan {
			in.hoist(&pre, &st.X) // the hook runs once per iteration
		}
		in.readHooks(st.X, &pre)
		in.rewriteBlock(st.Body)
		var top []ast.Stmt
		if isChan {
			top = append(top, in.hook("ChanRange", st.X))
		}
		if st.Tok == token.ASSIGN {
			for _, kv := range []ast.Expr{st.Key, st.Value} {
				if kv == nil {
					continue
				}
				if id, ok := kv.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				if h := in.writeHook(kv); h != nil {
					top = append(top, h)
				}
			}
		}
		if len(top) > 0 {
			st.Body.List = append(top, st.Body.List...)
		}

	case *ast.SwitchStmt:
		wrap = in.rewriteInit(&st.Init, &pre)
		in.funcLits(st.Tag)
		var tag []ast.Stmt
		in.readHooks(st.Tag, &tag)
		wrap = afterInit(&st.Init, &pre, tag) || wrap
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				cc.Body = in.rewriteStmts(cc.Body)
			}
		}

	case *ast.TypeSwitchStmt:
		wrap = in.rewriteInit(&st.Init, &pre)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				cc.Body = in.rewriteStmts(cc.Body)
			}
		}

	case *ast.SelectStmt:
		return in.rewriteSelect(st)

	case *ast.GoStmt:
		return concat(pre, in.rewriteGo(st), nil)

	case *ast.DeferStmt:
		if repl := in.rewriteDeferSync(st); repl != nil {
			return []ast.Stmt{repl}
		}
		in.funcLits(st.Call)
		for _, a := range st.Call.Args {
			in.readHooks(a, &pre)
		}
	}
	if wrap {
		return []ast.Stmt{&ast.BlockStmt{List: concat(pre, s, post)}}
	}
	return concat(pre, s, post)
}

func (in *instrumenter) rewriteStmts(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		out = append(out, in.rewriteStmt(s)...)
	}
	return out
}

// rewriteInit rewrites an if's or a switch's init clause as the statement
// it is, so a receive or a sync call there is hoisted and hooked like
// anywhere else. When that emits anything, the init moves out of the
// statement, after what runs ahead of it and before its own hooks (the
// caller wraps the result in a block). It reports whether the init moved.
func (in *instrumenter) rewriteInit(init *ast.Stmt, pre *[]ast.Stmt) bool {
	if *init == nil {
		return false
	}
	stmts := in.rewriteStmt(*init)
	if len(stmts) == 1 {
		*init = stmts[0]
		return false
	}
	*pre = append(*pre, stmts...)
	*init = nil
	return true
}

// initReads collects read hooks from a for loop's init clause. Writes
// there are not hooked: their hook would have to run between the init
// and the condition, which cannot be expressed without restructuring the
// loop (documented gap).
func (in *instrumenter) initReads(s ast.Stmt, out *[]ast.Stmt) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			in.readHooks(r, out)
		}
	case *ast.ExprStmt:
		in.readHooks(st.X, out)
	}
}

// afterInit appends an if condition's or a switch tag's read hooks to
// pre. The hooks may read names the statement's init declares, or memory
// it changes, so when there are both an init and hooks, the init moves
// out of the statement ahead of them (the caller wraps the result in a
// block). It reports whether the init moved.
func afterInit(init *ast.Stmt, pre *[]ast.Stmt, hooks []ast.Stmt) bool {
	moved := *init != nil && len(hooks) > 0
	if moved {
		*pre = append(*pre, *init)
		*init = nil
	}
	*pre = append(*pre, hooks...)
	return moved
}

// breaksTo reports whether a `break` inside l's statement names l.
func breaksTo(l *ast.LabeledStmt) bool {
	found := false
	ast.Inspect(l.Stmt, func(n ast.Node) bool {
		if b, ok := n.(*ast.BranchStmt); ok && b.Tok == token.BREAK && b.Label != nil && b.Label.Name == l.Label.Name {
			found = true
		}
		return !found
	})
	return found
}

func concat(pre []ast.Stmt, s ast.Stmt, post []ast.Stmt) []ast.Stmt {
	out := make([]ast.Stmt, 0, len(pre)+1+len(post))
	out = append(out, pre...)
	out = append(out, s)
	out = append(out, post...)
	return out
}

// rewriteGo turns `go f(a, b)` into a block that forks the detector
// thread and evaluates the callee and arguments in the parent (where the
// spec evaluates them), then spawns a wrapper that binds the child's
// identity before running the call:
//
//	{
//	    __pacer_g1 := rt.GoSpawn(&__pacer_h)
//	    __pacer_t2 := a
//	    go func() { rt.GoStart(__pacer_g1); defer rt.GoExit(__pacer_g1); f(__pacer_t2, b) }()
//	}
func (in *instrumenter) rewriteGo(st *ast.GoStmt) ast.Stmt {
	call := st.Call
	var setup []ast.Stmt

	// Argument reads happen in the parent.
	for _, a := range call.Args {
		in.readHooks(a, &setup)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && in.readsReceiver(sel) {
		in.readHooks(sel.X, &setup)
	}

	gname := in.temp("g")
	setup = append(setup, &ast.AssignStmt{
		Lhs: []ast.Expr{ast.NewIdent(gname)},
		Tok: token.DEFINE,
		Rhs: []ast.Expr{&ast.CallExpr{Fun: rtSel("GoSpawn"), Args: []ast.Expr{in.slotRef()}}},
	})

	hoist := func(e ast.Expr) ast.Expr {
		name := in.temp("t")
		setup = append(setup, &ast.AssignStmt{
			Lhs: []ast.Expr{ast.NewIdent(name)},
			Tok: token.DEFINE,
			Rhs: []ast.Expr{e},
		})
		return ast.NewIdent(name)
	}

	fn := call.Fun
	switch f := fn.(type) {
	case *ast.FuncLit:
		in.rewriteFunc(f.Body)
	case *ast.Ident:
		if _, isFunc := in.objOf(f).(*types.Func); !isFunc {
			if _, isBuiltin := in.objOf(f).(*types.Builtin); !isBuiltin {
				fn = hoist(fn) // func-typed variable: evaluate in parent
			}
		}
	default:
		fn = hoist(fn) // method value / computed callee
	}

	args := make([]ast.Expr, len(call.Args))
	for i, a := range call.Args {
		switch a.(type) {
		case *ast.BasicLit:
			args[i] = a
		case *ast.FuncLit:
			in.funcLits(a)
			args[i] = a
		default:
			args[i] = hoist(a)
		}
	}

	body := []ast.Stmt{
		rtCall("GoStart", ast.NewIdent(gname)),
		&ast.DeferStmt{Call: &ast.CallExpr{Fun: rtSel("GoExit"), Args: []ast.Expr{ast.NewIdent(gname)}}},
		&ast.ExprStmt{X: &ast.CallExpr{Fun: fn, Args: args, Ellipsis: call.Ellipsis}},
	}
	setup = append(setup, &ast.GoStmt{Call: &ast.CallExpr{
		Fun: &ast.FuncLit{
			Type: &ast.FuncType{Params: &ast.FieldList{}},
			Body: &ast.BlockStmt{List: body},
		},
	}})
	return &ast.BlockStmt{List: setup}
}

// rewriteSelect hooks a select statement's channel operations. Send-side
// publications run before the select (publishing without sending adds a
// conservative edge that can only hide races, never invent one); the
// acquisition side of whichever case fires runs at the top of its body.
// The select evaluates every case's channel and sent value on entry, in
// source order, so they are hoisted together.
func (in *instrumenter) rewriteSelect(st *ast.SelectStmt) []ast.Stmt {
	var pre []ast.Stmt
	var ops []*ast.Expr
	for _, c := range st.Body.List {
		if ch, val := commOperands(c.(*ast.CommClause).Comm); ch != nil {
			ops = append(ops, ch)
			if val != nil {
				ops = append(ops, val)
			}
		}
	}
	in.hoist(&pre, ops...)
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		var top []ast.Stmt
		switch ch, val := commOperands(cc.Comm); {
		case val != nil:
			in.funcLits(cc.Comm)
			pre = append(pre, in.hook("ChanSend", *ch))
			top = append(top, in.hook("ChanSendDone", *ch))
		case ch != nil:
			pre = append(pre, in.hook("ChanRecvPre", *ch))
			top = append(top, in.hook("ChanRecv", *ch))
			if as, ok := cc.Comm.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
				for _, l := range as.Lhs {
					if h := in.writeHook(l); h != nil {
						top = append(top, h)
					}
				}
			}
		}
		cc.Body = append(top, in.rewriteStmts(cc.Body)...)
	}
	return concat(pre, st, nil)
}

// commOperands returns the channel operand of a select case's send or
// receive and, for a send, the sent value; nil for the default case.
func commOperands(comm ast.Stmt) (ch, val *ast.Expr) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		return &c.Chan, &c.Value
	case *ast.ExprStmt:
		return recvOperand(c.X), nil
	case *ast.AssignStmt:
		return recvOperand(c.Rhs[0]), nil
	}
	return nil, nil
}

// recvOperand returns the channel operand slot of a receive, or nil when
// e is not one.
func recvOperand(e ast.Expr) *ast.Expr {
	if un, ok := e.(*ast.UnaryExpr); ok && un.Op == token.ARROW {
		return &un.X
	}
	return nil
}

// rewriteDeferSync replaces `defer mu.Unlock()` and friends with the
// matching rt helper, which orders the hook around the real operation
// while preserving defer-time receiver evaluation. Returns nil when the
// deferred call is not a recognized sync operation.
func (in *instrumenter) rewriteDeferSync(st *ast.DeferStmt) ast.Stmt {
	sel, ok := st.Call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	kind, method := in.syncMethod(sel)
	// defer once.Do(f): rt.DeferOnceDo performs the real Do, and
	// defer-time evaluation of &once and f matches the original
	// statement's.
	if kind == "Once" && method == "Do" && len(st.Call.Args) == 1 {
		in.funcLits(st.Call)
		return &ast.DeferStmt{Call: &ast.CallExpr{
			Fun:  rtSel("DeferOnceDo"),
			Args: []ast.Expr{in.slotG(), in.recvPtr(sel.X), st.Call.Args[0]},
		}}
	}
	if len(st.Call.Args) != 0 {
		return nil
	}
	var helper string
	switch {
	case kind == "Mutex" && method == "Unlock":
		helper = "DeferUnlock"
	case kind == "RWMutex" && method == "Unlock":
		helper = "DeferRWUnlock"
	case kind == "RWMutex" && method == "RUnlock":
		helper = "DeferRWRUnlock"
	case kind == "WaitGroup" && method == "Done":
		helper = "DeferWGDone"
	case kind == "WaitGroup" && method == "Wait":
		helper = "DeferWGWait"
	default:
		return nil
	}
	return &ast.DeferStmt{Call: &ast.CallExpr{
		Fun:  rtSel(helper),
		Args: []ast.Expr{in.slotG(), in.recvPtr(sel.X)},
	}}
}

// syncMethod classifies a method selector on a sync package type,
// returning the type name ("Mutex", "RWMutex", "WaitGroup", "Once",
// "Map", or an atomic type name) and the method name. Empty kind means
// not a sync type.
func (in *instrumenter) syncMethod(sel *ast.SelectorExpr) (kind, method string) {
	s, ok := in.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", ""
	}
	rt := s.Recv()
	if p, okp := rt.(*types.Pointer); okp {
		rt = p.Elem()
	}
	named, okn := rt.(*types.Named)
	if !okn || named.Obj().Pkg() == nil {
		return "", ""
	}
	switch named.Obj().Pkg().Path() {
	case "sync":
		return named.Obj().Name(), sel.Sel.Name
	case "sync/atomic":
		return "atomic." + named.Obj().Name(), sel.Sel.Name
	}
	return "", ""
}

// recvPtr builds the *T expression for a sync hook's receiver: the
// receiver itself when it is already a pointer, &recv otherwise.
func (in *instrumenter) recvPtr(recv ast.Expr) ast.Expr {
	if t := in.info.TypeOf(recv); t != nil {
		if _, ok := t.Underlying().(*types.Pointer); ok {
			return recv
		}
	}
	return &ast.UnaryExpr{Op: token.AND, X: &ast.ParenExpr{X: recv}}
}

// hoist moves each effectful operand of a sync statement, in source
// order, into a temporary declared ahead of it (after the hooks of the
// reads it performs). A sync hook copies its operand, which would run an
// effectful one twice, and a release hook must run after every call the
// statement makes (`ch <- f()`), or their accesses miss its edge. An
// operator stays, its operands hoisted instead (not the right side of &&
// or ||, which may not run): its result may take its type from the
// statement (`ch <- 1 << f()` on a `chan int8`), which a temporary loses.
func (in *instrumenter) hoist(pre *[]ast.Stmt, ops ...*ast.Expr) {
	for _, p := range ops {
		if !in.effectful(*p) || in.info.Types[*p].Value != nil {
			continue
		}
		switch x := (*p).(type) {
		case *ast.ParenExpr:
			in.hoist(pre, &x.X)
			continue
		case *ast.BinaryExpr:
			if x.Op == token.LAND || x.Op == token.LOR {
				in.hoist(pre, &x.X)
			} else {
				in.hoist(pre, &x.X, &x.Y)
			}
			continue
		case *ast.UnaryExpr:
			if x.Op != token.ARROW && x.Op != token.AND {
				in.hoist(pre, &x.X)
				continue
			}
		}
		in.funcLits(*p)
		in.readHooks(*p, pre)
		name := in.temp("t")
		*pre = append(*pre, &ast.AssignStmt{Lhs: []ast.Expr{ast.NewIdent(name)}, Tok: token.DEFINE, Rhs: []ast.Expr{*p}})
		*p = ast.NewIdent(name)
	}
}

// syncCall classifies a call expression as a synchronization operation
// and returns the hooks to place before and after the statement carrying
// it. handled=false means an ordinary call.
func (in *instrumenter) syncCall(call *ast.CallExpr) (pre, post []ast.Stmt, handled bool) {
	var name string
	var op *ast.Expr // the operand the hook takes
	recv := false    // op is a method receiver, taken by address
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	switch {
	case in.isBuiltin(call.Fun, "close") && len(call.Args) == 1:
		// close(ch): publishes like a send, before the close.
		name, op = "ChanClose", &call.Args[0]
	case isSel && in.atomicPkg(sel.X):
		// Package-level sync/atomic functions: atomic.LoadT(&x) and friends.
		if len(call.Args) == 0 {
			return nil, nil, false
		}
		name, op = atomicHook(sel.Sel.Name), &call.Args[0]
	case isSel:
		kind, method := in.syncMethod(sel)
		if kind == "Once" && method == "Do" && len(call.Args) == 1 {
			// once.Do(f) cannot be hooked around: the release must land
			// inside the Once's critical section (before any other caller
			// observes completion), so the call is replaced wholesale with
			// rt.OnceDo, which performs the real Do with the edges in place.
			arg := call.Args[0]
			in.readHooks(arg, &pre)
			call.Fun = rtSel("OnceDo")
			call.Args = []ast.Expr{in.slotRef(), in.recvPtr(sel.X), arg}
			return pre, nil, true
		}
		name = methodHooks[kind+"."+method]
		if strings.HasPrefix(kind, "atomic.") {
			name = atomicHook(method)
		}
		op, recv = &sel.X, true
	}
	if name == "" {
		return nil, nil, false
	}
	hooked := op // what the hook takes: op, or the receiver's address
	if recv {
		p := in.recvPtr(*op)
		hooked = &p
	}
	ops := []*ast.Expr{hooked}
	for i := range call.Args {
		if &call.Args[i] != op {
			ops = append(ops, &call.Args[i])
		}
	}
	in.hoist(&pre, ops...)
	if recv && in.effectful(*op) {
		*op = *hooked // the method is called through the hoisted address
	}
	arg := *hooked
	if name == "ChanClose" {
		in.readHooks(arg, &pre)
	} else {
		arg = unsafeCast(arg)
	}
	if h := in.hook(name, arg); releases[name] {
		pre = append(pre, h)
	} else {
		post = append(post, h)
	}
	return pre, post, true
}

// methodHooks maps the sync methods the rewriter hooks to their hooks.
var methodHooks = map[string]string{
	"Mutex.Lock": "LockAcquire", "Mutex.Unlock": "LockRelease",
	"RWMutex.Lock": "RWLock", "RWMutex.Unlock": "RWUnlock",
	"RWMutex.RLock": "RWRLock", "RWMutex.RUnlock": "RWRUnlock",
	"WaitGroup.Done": "WGDone", "WaitGroup.Wait": "WGWait",
}

// releases holds the hooks that publish, and so run before the operation;
// every other sync hook acquires, after it.
var releases = map[string]bool{
	"ChanClose": true, "LockRelease": true, "RWUnlock": true, "RWRUnlock": true,
	"WGDone": true, "AtomicStore": true,
}

// atomicHook returns the hook of a sync/atomic function or method, or ""
// for one the rewriter leaves alone.
func atomicHook(name string) string {
	switch {
	case strings.HasPrefix(name, "Load"):
		return "AtomicLoad"
	case strings.HasPrefix(name, "Store"):
		return "AtomicStore"
	case strings.HasPrefix(name, "Add"), strings.HasPrefix(name, "Swap"),
		strings.HasPrefix(name, "CompareAndSwap"), strings.HasPrefix(name, "Or"), strings.HasPrefix(name, "And"):
		return "AtomicRMW"
	}
	return ""
}

// isBuiltin reports whether fun names the builtin function name.
func (in *instrumenter) isBuiltin(fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = in.objOf(id).(*types.Builtin)
	return ok
}

// atomicPkg reports whether x names the sync/atomic package.
func (in *instrumenter) atomicPkg(x ast.Expr) bool {
	id, _ := x.(*ast.Ident)
	pn, ok := in.info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// valueReceiverCall reports whether sel is a method call that copies its
// receiver (value receiver), i.e. genuinely reads it.
func (in *instrumenter) valueReceiverCall(sel *ast.SelectorExpr) bool {
	s, ok := in.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	sig, ok := s.Obj().Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ptr := sig.Recv().Type().(*types.Pointer)
	return !ptr
}

// readsReceiver reports whether calling the method sel evaluates — reads
// — its operand: a value receiver copies it, and a pointer receiver of a
// pointer operand loads that pointer. Only a pointer-receiver method of
// a non-pointer operand takes &sel.X without reading it.
func (in *instrumenter) readsReceiver(sel *ast.SelectorExpr) bool {
	s, ok := in.info.Selections[sel]
	return ok && s.Kind() == types.MethodVal && !in.implicitAddr(sel)
}

// implicitAddr reports whether sel selects a pointer-receiver method of a
// non-pointer operand, so evaluating it takes &sel.X without reading it.
func (in *instrumenter) implicitAddr(sel *ast.SelectorExpr) bool {
	s, ok := in.info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || in.valueReceiverCall(sel) {
		return false
	}
	_, isPtr := s.Recv().(*types.Pointer)
	return !isPtr
}

// unsafeCast wraps a pointer expression as unsafe.Pointer.
func unsafeCast(p ast.Expr) ast.Expr {
	return &ast.CallExpr{
		Fun:  &ast.SelectorExpr{X: ast.NewIdent(unsafeName), Sel: ast.NewIdent("Pointer")},
		Args: []ast.Expr{p},
	}
}
