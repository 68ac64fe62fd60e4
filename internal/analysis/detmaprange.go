package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detmaprange flags `for range` over a map whose body feeds an
// order-sensitive sink — appending to a slice, writing scroll records,
// feeding a Fingerprinter (or any hash), or marshaling JSON. Go
// randomizes map iteration order on purpose, so such
// a loop produces a different byte stream on every run: the classic
// digest-divergence bug this repo keeps designing around (chaos.Runner
// iterates the sorted r.Procs() slice precisely because of it).
//
// The one safe idiom is recognized: collecting only the keys into a slice
// that the same function later sorts —
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)
//
// Anything else needs sorted keys first, or //fixd:nondeterm <reason>
// when the sink is genuinely order-insensitive.
var Detmaprange = &Analyzer{
	Name: "detmaprange",
	Doc:  "flag map iteration feeding slices, scrolls, hashes, or JSON without sorting keys first",
	Run:  runDetmaprange,
}

// detmaprangeSinkPkgs are package-path prefixes whose method calls count
// as order-sensitive sinks (scroll writers/fingerprints and hashes).
var detmaprangeSinkPkgs = []string{
	"repro/internal/scroll",
	"hash",
	"crypto/",
}

func runDetmaprange(pass *Pass) error {
	for _, f := range pass.Files {
		// Walk functions so the safe-idiom check can see the whole body
		// (the sort call lives outside the range statement).
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkMapRanges finds map-range statements directly inside fn's body
// (including nested blocks, but not nested function literals — those are
// walked as their own functions) and reports order-sensitive sinks.
func checkMapRanges(pass *Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != nil {
			return false // analyzed separately with its own body scope
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if sink := firstSink(pass, rng); sink != "" {
			if isSafeKeyCollect(pass, rng, fnBody) {
				return true
			}
			pass.Reportf(rng.Pos(), "map iteration %s — map order is randomized, so the output bytes differ across runs; iterate sorted keys instead (or annotate an order-insensitive sink: //fixd:nondeterm <reason>)", sink)
		}
		return true
	})
}

// firstSink scans a map-range body for the first order-sensitive sink and
// describes it, or returns "" when the body is order-insensitive.
func firstSink(pass *Pass, rng *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Builtin append — but only when it grows an accumulator that
		// outlives the loop. append([]byte(nil), v...) copies and
		// per-key appends (cells[k] = append(..., v)) are order-insensitive.
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			if obj := pass.Info.Uses[id]; obj != nil {
				if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
					if len(call.Args) > 0 && isAccumulator(pass, call.Args[0], rng) {
						sink = "appends to a slice"
						return false
					}
				}
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			// Package-qualified: json.Marshal and friends.
			if path, name, ok := selectorPkgFunc(pass.Info, sel); ok {
				if (path == "encoding/json" && strings.HasPrefix(name, "Marshal")) ||
					(path == "fmt" && strings.HasPrefix(name, "Fprint")) {
					sink = "marshals/prints in iteration order"
					return false
				}
				return true
			}
			// Method call: scroll writers, fingerprint accumulators, hashes,
			// JSON encoders.
			if recv := pass.Info.TypeOf(sel.X); recv != nil {
				if pkgPath, typeName := receiverPkgType(recv); pkgPath != "" {
					for _, pre := range detmaprangeSinkPkgs {
						if pkgPath == strings.TrimSuffix(pre, "/") || strings.HasPrefix(pkgPath, pre) {
							sink = "writes " + typeName + "." + sel.Sel.Name + " in iteration order"
							return false
						}
					}
					if pkgPath == "encoding/json" && sel.Sel.Name == "Encode" {
						sink = "encodes JSON in iteration order"
						return false
					}
				}
			}
		}
		return true
	})
	return sink
}

// isAccumulator decides whether an append destination accumulates across
// loop iterations — the only case where map order leaks into output. A
// plain identifier declared outside the range body accumulates; a
// loop-local variable, a fresh-slice conversion like append([]byte(nil),
// v...), or a map cell indexed by the range key (one append per key) do
// not. Field/selector destinations are treated as accumulators.
func isAccumulator(pass *Pass, dst ast.Expr, rng *ast.RangeStmt) bool {
	switch dst := dst.(type) {
	case *ast.Ident:
		obj := objOf(pass.Info, dst)
		if obj == nil {
			return true
		}
		declaredInside := obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End()
		return !declaredInside
	case *ast.IndexExpr:
		if keyID, ok := rng.Key.(*ast.Ident); ok && keyID.Name != "_" {
			if idx, ok := dst.Index.(*ast.Ident); ok && objOf(pass.Info, idx) == objOf(pass.Info, keyID) {
				return false
			}
		}
		return true
	case *ast.SelectorExpr:
		return true
	default:
		// Composite literals, conversions, call results: a fresh slice.
		return false
	}
}

// receiverPkgType resolves a receiver type to its defining package path
// and type name, unwrapping pointers.
func receiverPkgType(t types.Type) (pkgPath, typeName string) {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name()
}

// isSafeKeyCollect recognizes the collect-keys-then-sort idiom: every
// append in the body appends only the range's key variable, and every
// slice so grown is passed to a sort call later in the same function.
func isSafeKeyCollect(pass *Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok || keyID.Name == "_" {
		return false
	}
	keyObj := pass.Info.Defs[keyID]
	if keyObj == nil {
		keyObj = pass.Info.Uses[keyID]
	}
	if keyObj == nil {
		return false
	}
	safe := true
	var targets []types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if !safe {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if obj := pass.Info.Uses[id]; obj == nil {
			return true
		} else if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
			return true
		}
		// append(dst, k) with dst a plain identifier and k the key var.
		if len(call.Args) != 2 || call.Ellipsis.IsValid() {
			safe = false
			return false
		}
		dst, ok := call.Args[0].(*ast.Ident)
		if !ok {
			safe = false
			return false
		}
		arg, ok := call.Args[1].(*ast.Ident)
		if !ok || objOf(pass.Info, arg) != keyObj {
			safe = false
			return false
		}
		targets = append(targets, objOf(pass.Info, dst))
		return true
	})
	if !safe || len(targets) == 0 {
		return false
	}
	for _, target := range targets {
		if target == nil || !sortedLater(pass, fnBody, rng, target) {
			return false
		}
	}
	return true
}

// sortedLater reports whether a sort call mentioning target appears in
// the function after the range statement.
func sortedLater(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, name, ok := selectorPkgFunc(pass.Info, sel)
		if !ok {
			return true
		}
		isSort := path == "sort" || (path == "slices" && strings.HasPrefix(name, "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && objOf(pass.Info, id) == target {
					mentions = true
					return false
				}
				return true
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// objOf resolves an identifier to its object (use or definition).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
