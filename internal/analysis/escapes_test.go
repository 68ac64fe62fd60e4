package analysis

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// escapeCeiling is the most //fixd: escapes the module may hold outside this
// package. Each marks a site no analyzer checks, so the number may fall but
// never rise: lower it when an escape goes.
const escapeCeiling = 11

// TestEscapeCeiling counts the //fixd: annotations of every package outside
// internal/analysis (whose own are documentation and fixtures).
func TestEscapeCeiling(t *testing.T) {
	s := sharedSuite(t)
	pkgs, err := s.Loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	own := s.Loader.ModulePath + "/internal/analysis"
	total := 0
	var files []string
	for _, pkg := range pkgs {
		if pkg.Path == own || strings.HasPrefix(pkg.Path, own+"/") {
			continue
		}
		idx, _ := parseAnnotations(pkg)
		for file, byLine := range idx {
			total += len(byLine)
			files = append(files, fmt.Sprintf("%s %d", relPath(s.Loader.ModuleRoot, file), len(byLine)))
		}
	}
	sort.Strings(files)
	t.Logf("%d escapes: %s", total, strings.Join(files, ", "))
	if total > escapeCeiling {
		t.Errorf("%d //fixd: escapes outside internal/analysis, above the ceiling of %d: check the new site with an analyzer instead", total, escapeCeiling)
	}
}
