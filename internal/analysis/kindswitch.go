package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// Kindswitch enforces exhaustiveness for switches over FixD's closed
// enums — fault.Kind and the fleet wire protocol's FrameType. A switch that
// silently ignores a newly added constant is exactly the omission a
// reviewer misses and replay-time tests only catch when a seed happens to
// reach it: Rollback (PR 6) and Corrupt/SlowNode (PR 9) each had to be
// threaded through a dozen such switches, and this analyzer found the arm
// PR 9 missed. The fault and chaos packages have since replaced those
// switches with one descriptor row per kind, so for fault.Kind this is a
// backstop for switches written later. A switch over an enum must either
// mention every declared constant or carry a default clause that makes the
// remainder explicit.
var Kindswitch = &Analyzer{
	Name: "kindswitch",
	Doc:  "exhaustiveness checking for switches over fault.Kind and fleet.FrameType",
	Run:  runKindswitch,
}

// kindswitchEnums lists the closed enum types the analyzer guards,
// keyed by defining package path and type name. fault.Kind is an alias of
// inject.Kind: a switch over either resolves to the one entry.
var kindswitchEnums = map[[2]string]bool{
	{"repro/internal/inject", "Kind"}:     true,
	{"repro/internal/fleet", "FrameType"}: true,
}

func runKindswitch(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tagType := pass.Info.TypeOf(sw.Tag)
			named := namedOf(tagType)
			if named == nil {
				return true
			}
			obj := named.Obj()
			if obj.Pkg() == nil || !kindswitchEnums[[2]string{obj.Pkg().Path(), obj.Name()}] {
				return true
			}
			consts := enumConstants(obj.Pkg(), named)
			if len(consts) == 0 {
				return true
			}
			covered := make(map[string]bool)
			hasDefault := false
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
						covered[constKey(tv.Value)] = true
					}
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for _, c := range consts {
				if !covered[constKey(c.Val())] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				// Name the type as the switch's author wrote it (fault.Kind, not
				// the inject.Kind it aliases).
				written := types.TypeString(tagType, func(p *types.Package) string { return p.Name() })
				pass.Reportf(sw.Pos(), "switch over %s is missing %s and has no default — a future %s added here would be silently skipped",
					written, strings.Join(missing, ", "), obj.Name())
			}
			return true
		})
	}
	return nil
}

// namedOf unwraps a type to its named form, following aliases.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if a, ok := t.(*types.Alias); ok {
		t = types.Unalias(a)
	}
	named, _ := t.(*types.Named)
	return named
}

// enumConstants returns the package-level constants declared with exactly
// the enum's named type, in declaration (value) order.
func enumConstants(pkg *types.Package, enum *types.Named) []*types.Const {
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), enum) {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		vi, iok := constant.Int64Val(out[i].Val())
		vj, jok := constant.Int64Val(out[j].Val())
		if iok && jok && vi != vj {
			return vi < vj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// constKey renders a constant value as a comparison key.
func constKey(v constant.Value) string { return fmt.Sprintf("%s", v.ExactString()) }
