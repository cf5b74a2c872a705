// Package lint is punovet's analysis framework: a small, stdlib-only
// re-creation of the golang.org/x/tools/go/analysis API shape (the module
// is built offline, so x/tools cannot be vendored) plus the
// project-specific analyzers that mechanize the simulator's determinism
// and zero-allocation invariants:
//
//   - maprange:     no `for … range` over maps in simulation packages
//   - wallclock:    no time.Now/time.Since/time.Until or math/rand there
//   - hotalloc:     no growing a fresh local slice inside hot functions
//   - msglife:      pooled *coherence.Msg pointers are never parked past
//     handler return (park by value instead)
//   - shardconfine: PDES shard workers touch only shard-local state and
//     the blessed cross-shard APIs
//
// The sixth check, the escape gate (escape.go, `punovet -escape`), is not
// an Analyzer: it parses `go build -gcflags=-m=2` diagnostics — compiler
// ground truth for //puno:hot functions — instead of walking the AST.
//
// There is one way to exempt code from a check: a reviewed row in the
// exemptions table (exempt.go), keyed by types.Func.FullName() with a
// mandatory written reason. No comment silences a finding; the only
// //puno: comments are the markers //puno:hot and //puno:worker
// (directive.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
// analysis.Pass. Files never holds a _test.go file: Load does not load
// them, which is the whole of the test-file exemption.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
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
