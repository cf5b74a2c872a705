package lint

import (
	"go/token"
	"sort"
	"strings"
	"time"
)

// Finding is one resolved diagnostic, positioned and attributed.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// Timing is one analyzer's cumulative wall time across a run, for the
// `punovet -v` summary.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// Default returns punovet's analyzer suite. The escape gate is the sixth
// check but not an *Analyzer — it drives the compiler, not a Pass — and
// runs via RunEscape (`punovet -escape`).
func Default() []*Analyzer {
	return []*Analyzer{MapRange, WallClock, HotAlloc, MsgLife, ShardConfine}
}

// auditedPkgs are the simulation packages whose determinism and
// zero-allocation invariants the analyzers enforce. cmd/, the root package,
// and the harness packages (runner, report, prof, …) are exempt: they run
// on the host side of the simulation boundary.
var auditedPkgs = map[string]bool{
	"repro/internal/sim":       true,
	"repro/internal/noc":       true,
	"repro/internal/coherence": true,
	"repro/internal/htm":       true,
	"repro/internal/machine":   true,
	"repro/internal/core":      true,
	"repro/internal/cm":        true,
	"repro/internal/cache":     true,
	"repro/internal/mem":       true,
	"repro/internal/pdes":      true,
	// The serving layer is host-side, but its whole correctness story is
	// that cached results are provably fresh because simulation is
	// deterministic: a wall-clock read or map iteration feeding a cache
	// key, an artifact encoding, or an eviction decision would break
	// content addressing the same way it would break a simulation. Its
	// //puno:hot lookup path is also under the escape gate.
	"repro/internal/serve": true,
}

// audited reports whether the package is subject to the simulation-only
// analyzers. Fixture packages under a testdata/src tree are always treated
// as audited so the analyzer test suite and the punovet smoke tests can
// exercise every analyzer on synthetic code.
func audited(pkgPath string) bool {
	return auditedPkgs[pkgPath] || strings.Contains(pkgPath, "/testdata/src/")
}

// RunAnalyzers loads the packages matched by patterns (resolved from dir)
// and applies the analyzers to the audited ones, returning findings sorted
// by position. Every loaded package, audited or not, also has its //puno:
// comments checked against the directive grammar.
func RunAnalyzers(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	findings, _, err := RunAnalyzersTimed(dir, patterns, analyzers)
	return findings, err
}

// RunAnalyzersTimed is RunAnalyzers plus a per-analyzer cumulative timing
// summary (the `punovet -v` report), in the order the analyzers were given.
func RunAnalyzersTimed(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, []Timing, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	var findings []Finding
	elapsed := make(map[*Analyzer]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		findings = append(findings, checkDirectives(pkg)...)
		if !audited(pkg.PkgPath) {
			continue
		}
		for _, a := range analyzers {
			pass := newPass(a, pkg)
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: a.Name,
					Message:  d.Message,
				})
			}
			start := time.Now()
			_, err := a.Run(pass)
			elapsed[a] += time.Since(start)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	sortFindings(findings)
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: elapsed[a]})
	}
	return findings, timings, nil
}

// sortFindings orders findings by file, line, then analyzer, the stable
// order every reporting path prints in.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

func newPass(a *Analyzer, pkg *Package) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
	}
}

// checkDirectives reports every //puno: comment in the package that is
// not a bare //puno:hot or //puno:worker.
func checkDirectives(pkg *Package) []Finding {
	var out []Finding
	for _, d := range newPass(nil, pkg).Directives() {
		if d.Kind == dirMalformed {
			out = append(out, Finding{
				Pos:      token.Position{Filename: d.File, Line: d.Line},
				Analyzer: "puno-directive",
				Message:  d.Problem,
			})
		}
	}
	return out
}
