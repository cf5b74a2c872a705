package puno

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestPDESUnreachable holds the serial engine as the one way to run a spec:
// no non-test package of the module except internal/pdes itself may depend
// on internal/pdes, directly or through another package. The coordinator is
// left only for the repository benchmark's probe (bench/ is its own module)
// and for the determinism tests, which reach it from _test.go files.
func TestPDESUnreachable(t *testing.T) {
	const pdes = "repro/internal/pdes"
	pkgs, err := lint.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string][]string{}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imports[p.PkgPath] = append(imports[p.PkgPath], imp.Path())
		}
	}
	// Import graphs are acyclic, so a package's answer is final once its
	// imports have been asked.
	reaches := map[string]bool{pdes: true}
	var reach func(path string) bool
	reach = func(path string) bool {
		if r, ok := reaches[path]; ok {
			return r
		}
		reaches[path] = slices.ContainsFunc(imports[path], reach)
		return reaches[path]
	}
	var offenders []string
	for _, p := range pkgs {
		if p.PkgPath != pdes && reach(p.PkgPath) {
			offenders = append(offenders, p.PkgPath)
		}
	}
	slices.Sort(offenders)
	if len(offenders) > 0 {
		t.Errorf("%d non-test packages depend on %s; only the benchmark probe and tests may run it:\n\t%s",
			len(offenders), pdes, strings.Join(offenders, "\n\t"))
	}
}
