package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// Analyzers is the full determinism suite in stable order.
var Analyzers = []*Analyzer{Detwall, Detmaprange, Detgoroutine, Kindswitch, Scrollrecord}

// CorePackages are the deterministic-core packages: everything that runs
// inside (or feeds bytes into) the seeded simulation and must be free of
// ambient inputs and iteration-order leaks.
var CorePackages = []string{
	"repro/internal/dsim",
	"repro/internal/chaos",
	"repro/internal/scroll",
	"repro/internal/fault",
	"repro/internal/apps",
	"repro/internal/vclock",
	"repro/internal/checkpoint",
	"repro/internal/experiments", // its tables are committed goldens
}

// WallclockScope extends the core with the package that bridges to real
// time — the live substrate — where wall-clock reads are legitimate but
// must be annotated (//fixd:wallclock <reason>) so each one is an audited
// decision.
var WallclockScope = append(append([]string{}, CorePackages...),
	"repro/internal/substrate",
)

// appliesTo decides whether an analyzer runs on a package. Fixture
// packages under testdata/ are special-cased: a package inside
// testdata/src/<analyzer>/ runs exactly that analyzer, which is what lets
// `fixd-lint ./internal/analysis/testdata/src/detwall/dirty` serve as the
// CI negative smoke.
func appliesTo(a *Analyzer, pkgPath string) bool {
	if i := strings.Index(pkgPath, "/testdata/"); i >= 0 {
		return strings.Contains(pkgPath[i:], "/"+a.Name+"/")
	}
	switch a.Name {
	case "detwall":
		return containsPath(WallclockScope, pkgPath)
	case "detmaprange":
		return containsPath(CorePackages, pkgPath)
	case "detgoroutine":
		return pkgPath == "repro/internal/dsim"
	default: // kindswitch, scrollrecord: the contract is global
		return true
	}
}

func containsPath(list []string, p string) bool {
	for _, s := range list {
		if s == p {
			return true
		}
	}
	return false
}

// Suite runs the analyzer catalog over a module with annotation
// suppression applied.
type Suite struct {
	Loader    *Loader
	Analyzers []*Analyzer
}

// NewSuite returns the default suite for the module rooted at dir.
func NewSuite(moduleRoot string) (*Suite, error) {
	l, err := NewLoader(moduleRoot)
	if err != nil {
		return nil, err
	}
	return &Suite{Loader: l, Analyzers: Analyzers}, nil
}

// Run loads the patterns and runs every in-scope analyzer on every
// package. Diagnostics suppressed by a valid annotation are dropped;
// malformed annotations are themselves diagnostics. The result is sorted
// by position.
func (s *Suite) Run(patterns ...string) ([]Diagnostic, error) {
	pkgs, err := s.Loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		anns, annDiags := parseAnnotations(pkg)
		out = append(out, annDiags...)
		for _, a := range s.Analyzers {
			if !appliesTo(a, pkg.Path) {
				continue
			}
			diags, err := RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				if !anns.suppressed(d) {
					out = append(out, d)
				}
			}
		}
	}
	SortDiagnostics(out)
	return out, nil
}

// JSONDiagnostic is the machine-readable diagnostic shape emitted by
// fixd-lint -json — the same committed-JSON-evidence idiom the bench and
// fleet tooling use.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// WriteJSON renders diagnostics as an indented JSON array with paths
// relative to the module root (stable across checkouts).
func WriteJSON(w io.Writer, moduleRoot string, diags []Diagnostic) error {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, JSONDiagnostic{
			File:     relPath(moduleRoot, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteText renders diagnostics one per line in file:line:col form with
// paths relative to the module root.
func WriteText(w io.Writer, moduleRoot string, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", relPath(moduleRoot, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

func relPath(root, p string) string {
	if rel, err := filepath.Rel(root, p); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return p
}
