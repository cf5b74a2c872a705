// Package lint is punovet's analysis framework: a small, stdlib-only
// re-creation of the golang.org/x/tools/go/analysis API shape (the module
// is built offline, so x/tools cannot be vendored) plus the
// project-specific analyzers that mechanize the simulator's determinism
// and zero-allocation invariants:
//
//   - maprange:     no `for … range` over maps in simulation packages
//   - wallclock:    no time.Now/time.Since/time.Until or math/rand there
//   - hotalloc:     no growing a fresh local slice inside hot functions
//   - handlerfunc:  sim.Handler arguments are named funcs/methods, not closures
//   - msglife:      pooled *coherence.Msg pointers are never parked past
//     handler return (park by value instead)
//   - shardconfine: PDES shard workers touch only shard-local state and
//     the blessed cross-shard APIs
//   - probeguard:   every probe.Sink emission is dominated by a nil check
//
// The eighth check, the escape gate (escape.go, `punovet -escape`), is not
// an Analyzer: it parses `go build -gcflags=-m=2` diagnostics — compiler
// ground truth for //puno:hot functions — instead of walking the AST.
//
// Findings may be suppressed per statement with a written reason (see
// suppress.go); suppressions are forbidden entirely in internal/sim,
// internal/noc, internal/machine, internal/mem, and internal/pdes, where
// exemptions are reviewed structural allowlists keyed by
// types.Func.FullName() instead.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The shape deliberately matches
// golang.org/x/tools/go/analysis.Analyzer so the analyzers can migrate to
// the real driver unchanged if x/tools ever becomes vendorable here.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (any, error)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string // parallel to Files
	Src       [][]byte // parallel to Files; raw source for suppression scans
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	directives []directive // parsed //puno: directives, lazily built
	dirBuilt   bool
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppressed reports whether a finding by the named analyzer at pos is
// covered by a well-formed //puno: suppression directive. Malformed
// directives (missing reason) never suppress; they are reported separately
// by the driver.
func (p *Pass) suppressed(analyzer string, pos token.Pos) bool {
	line := p.Fset.Position(pos).Line
	file := p.Fset.Position(pos).Filename
	for _, d := range p.Directives() {
		if d.Kind != dirSuppress || d.Analyzer != analyzer || d.Reason == "" {
			continue
		}
		if d.File == file && d.AppliesTo == line {
			return true
		}
	}
	return false
}

// isTestFile reports whether the i'th file of the pass is a _test.go file.
// Test files in audited packages are exempt from maprange and hotalloc:
// table-driven tests legitimately range over expectation maps, and test
// code is off the simulation hot path by definition.
func (p *Pass) isTestFile(i int) bool {
	return strings.HasSuffix(p.Filenames[i], "_test.go")
}
