package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation escape hatches. A site the linter flags can be declared
// intentional with a same-line or immediately-preceding comment:
//
//	now := time.Now() //fixd:wallclock live backend maps wall time to ticks
//
//	//fixd:nondeterm the decorator forwards to the wrapped Context, which records the outcome
//	func (c *tracedCtx) Send(to string, payload []byte) { ... }
//
// AnnWallclock suppresses detwall; AnnNondeterm suppresses the other
// analyzers (detmaprange, detgoroutine, kindswitch, scrollrecord). A
// reason is mandatory — an annotation without one is itself a diagnostic,
// so escapes stay auditable.
const (
	AnnWallclock = "wallclock"
	AnnNondeterm = "nondeterm"
)

const annPrefix = "//fixd:"

// Annotation is one parsed //fixd: comment.
type Annotation struct {
	Kind   string // AnnWallclock or AnnNondeterm
	Reason string
	Pos    token.Position
}

// annotationIndex maps file -> line -> annotation for suppression lookup.
type annotationIndex map[string]map[int]Annotation

// parseAnnotations scans a package's comments for //fixd: annotations.
// Malformed annotations (unknown kind, missing reason) are reported as
// diagnostics under the "annotation" pseudo-analyzer so they cannot
// silently fail to suppress.
func parseAnnotations(pkg *Package) (annotationIndex, []Diagnostic) {
	idx := make(annotationIndex)
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, annPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, annPrefix)
				kind, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				if kind != AnnWallclock && kind != AnnNondeterm {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "annotation",
						Message:  "unknown annotation //fixd:" + kind + " (want wallclock or nondeterm)",
					})
					continue
				}
				reason = strings.TrimSpace(reason)
				if reason == "" {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "annotation",
						Message:  "//fixd:" + kind + " needs a reason: //fixd:" + kind + " <why this site is safe>",
					})
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]Annotation)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = Annotation{Kind: kind, Reason: reason, Pos: pos}
			}
		}
	}
	return idx, diags
}

// docAnnotated reports whether a declaration's doc comment carries the
// given annotation with a reason — the method-level escape used by whole
// Context implementations that intentionally do not write scrolls (bench/'s
// tracing decorator forwards to a context that does).
func docAnnotated(doc *ast.CommentGroup, kind string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, annPrefix+kind)
		if ok && strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}

// annotationKindFor maps an analyzer name to the annotation kind that
// suppresses it.
func annotationKindFor(analyzer string) string {
	if analyzer == "detwall" {
		return AnnWallclock
	}
	return AnnNondeterm
}

// suppressed reports whether a diagnostic is covered by an annotation on
// its own line or the line directly above it.
func (idx annotationIndex) suppressed(d Diagnostic) bool {
	byLine := idx[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	want := annotationKindFor(d.Analyzer)
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if ann, ok := byLine[line]; ok && ann.Kind == want {
			return true
		}
	}
	return false
}
