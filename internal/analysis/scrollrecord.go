package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Scrollrecord is the domain check behind record/replay completeness:
// every Context implementation's nondeterministic-outcome operations —
// sends, durable-store access, clock and randomness reads — must emit a
// scroll record on every return path. A path that skips the append
// produces a recording that replays differently from the run that made
// it, which surfaces later as an inexplicable digest divergence.
//
// The analyzer finds methods named Send, Now, Random, DurablePut,
// DurableGet, or DurableKeys on types implementing dsim.Context, and on
// types embedded into one (directly or through another embedded type),
// whose methods the implementation takes as its own — dsim.Kernel serves
// the durable calls of every context that way. It verifies a scroll append
// (a call to scroll.Scroll.Append, or a helper whose name starts with
// "record") dominates every return. Timer arming (SetTimer) is
// deliberately not in the list: virtual-time timers are deterministic
// inputs, and neither backend records the arm itself. Every implementation
// in the module records through a dsim.Kernel Record… method, replay's
// included (its kernel compares each record with the recording instead of
// appending it). The one that does not is bench/'s tracing decorator, which
// forwards every call to a context that records it; such a method is
// annotated //fixd:nondeterm <reason>.
var Scrollrecord = &Analyzer{
	Name: "scrollrecord",
	Doc:  "Context send/durable/clock/random methods must write a scroll record on every return path",
	Run:  runScrollrecord,
}

// scrollrecordMethods are the Context operations whose outcomes feed
// replay and therefore must be recorded.
var scrollrecordMethods = map[string]bool{
	"Send": true, "Now": true, "Random": true,
	"DurablePut": true, "DurableGet": true, "DurableKeys": true,
}

const (
	dsimPkgPath   = "repro/internal/dsim"
	scrollPkgPath = "repro/internal/scroll"
)

func runScrollrecord(pass *Pass) error {
	ctxIface := contextInterface(pass.Pkg)
	if ctxIface == nil {
		return nil // package neither defines nor imports dsim.Context
	}
	checked := recordingTypes(pass.Pkg, ctxIface)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !scrollrecordMethods[fn.Name.Name] {
				continue
			}
			if docAnnotated(fn.Doc, AnnNondeterm) {
				continue
			}
			recvType := pass.Info.TypeOf(fn.Recv.List[0].Type)
			if recvType == nil {
				continue
			}
			if p, ok := recvType.(*types.Pointer); ok {
				recvType = p.Elem()
			}
			named := namedOf(recvType)
			if named == nil || !checked[named.Obj()] {
				continue
			}
			w := &recordWalker{pass: pass, fn: fn}
			seen := w.check(fn.Body.List, false)
			if !seen && fn.Type.Results == nil && !w.reportedEnd {
				// A void method falling off the end without recording.
				pass.Reportf(fn.Pos(), "%s.%s performs a recorded operation but emits no scroll record before returning — replay cannot observe this outcome", named.Obj().Name(), fn.Name.Name)
			}
		}
	}
	return nil
}

// recordingTypes returns the package's types whose recorded operations are
// checked: every dsim.Context implementation, and every type embedded into
// one, at any depth.
func recordingTypes(pkg *types.Package, ctxIface *types.Interface) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	var add func(t types.Type)
	add = func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named := namedOf(t)
		if named == nil || out[named.Obj()] {
			return
		}
		out[named.Obj()] = true
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Embedded() {
					add(f.Type())
				}
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if named := namedOf(tn.Type()); named != nil && types.Implements(types.NewPointer(named), ctxIface) {
				add(named)
			}
		}
	}
	return out
}

// contextInterface finds dsim.Context from the analyzed package or its
// imports.
func contextInterface(pkg *types.Package) *types.Interface {
	lookup := func(p *types.Package) *types.Interface {
		if obj, ok := p.Scope().Lookup("Context").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
		return nil
	}
	if pkg.Path() == dsimPkgPath {
		return lookup(pkg)
	}
	for _, imp := range allImports(pkg, map[*types.Package]bool{}) {
		if imp.Path() == dsimPkgPath {
			return lookup(imp)
		}
	}
	return nil
}

// allImports flattens a package's transitive imports.
func allImports(pkg *types.Package, seen map[*types.Package]bool) []*types.Package {
	var out []*types.Package
	for _, imp := range pkg.Imports() {
		if seen[imp] {
			continue
		}
		seen[imp] = true
		out = append(out, imp)
		out = append(out, allImports(imp, seen)...)
	}
	return out
}

// recordWalker performs a conservative all-paths analysis: walking the
// statement list in order, tracking whether a scroll append has
// definitely executed, and reporting any return reached without one.
type recordWalker struct {
	pass        *Pass
	fn          *ast.FuncDecl
	reportedEnd bool
}

// check walks stmts with the given entry state and returns whether a
// record is guaranteed once the list falls through.
func (w *recordWalker) check(stmts []ast.Stmt, seen bool) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			if stmtRecords(w.pass, s) {
				seen = true
			}
			if !seen {
				w.report(s)
			}
			return seen
		case *ast.BlockStmt:
			seen = w.check(s.List, seen)
		case *ast.IfStmt:
			if s.Init != nil && stmtRecords(w.pass, s.Init) {
				seen = true
			}
			if exprRecords(w.pass, s.Cond) {
				seen = true
			}
			thenSeen := w.check(s.Body.List, seen)
			elseSeen := seen
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseSeen = w.check(e.List, seen)
			case *ast.IfStmt:
				elseSeen = w.check([]ast.Stmt{e}, seen)
			}
			seen = thenSeen && elseSeen
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			seen = w.checkSwitch(s, seen)
		case *ast.ForStmt:
			w.check(s.Body.List, seen) // body may run zero times
		case *ast.RangeStmt:
			w.check(s.Body.List, seen)
		default:
			if stmtRecords(w.pass, s) {
				seen = true
			}
		}
	}
	return seen
}

// checkSwitch handles switch-like statements: the whole construct
// guarantees a record only when every clause does and a default exists.
func (w *recordWalker) checkSwitch(s ast.Stmt, seen bool) bool {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil && stmtRecords(w.pass, s.Init) {
			seen = true
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	all := true
	hasDefault := false
	for _, clause := range body.List {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			list = c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			list = c.Body
			if c.Comm == nil {
				hasDefault = true
			}
		}
		if !w.check(list, seen) {
			all = false
		}
	}
	if all && hasDefault {
		return true
	}
	return seen
}

func (w *recordWalker) report(ret *ast.ReturnStmt) {
	w.reportedEnd = true
	w.pass.Reportf(ret.Pos(), "return without a scroll record in %s — every return path of a recorded Context operation must append to the scroll first", w.fn.Name.Name)
}

// stmtRecords reports whether a statement (excluding nested function
// literals) contains a scroll-record call.
func stmtRecords(pass *Pass, s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure is not necessarily called
		}
		if call, ok := n.(*ast.CallExpr); ok && isRecordCall(pass, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

func exprRecords(pass *Pass, e ast.Expr) bool {
	if e == nil {
		return false
	}
	return stmtRecords(pass, &ast.ExprStmt{X: e})
}

// isRecordCall recognizes scroll appends: a method call named Append on a
// value from the scroll package, or a call to a helper whose name starts
// with "record"/"Record".
func isRecordCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if strings.HasPrefix(name, "record") || strings.HasPrefix(name, "Record") {
			return true
		}
		if name == "Append" {
			if recv := pass.Info.TypeOf(fun.X); recv != nil {
				if pkgPath, _ := receiverPkgType(recv); pkgPath == scrollPkgPath {
					return true
				}
			}
		}
	case *ast.Ident:
		if strings.HasPrefix(fun.Name, "record") || strings.HasPrefix(fun.Name, "Record") {
			return true
		}
	}
	return false
}
