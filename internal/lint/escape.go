package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// The escape gate is punovet's compiler-ground-truth allocation check:
// instead of pattern-matching allocation syntax in the AST, it shells out
// to `go build -gcflags=-m=2`, parses the gc escape-analysis diagnostics,
// and fails when anything inside a hot function (annotated //puno:hot, or
// an OnEvent dispatcher) actually escapes to the heap. It sees what syntax
// hides — an interface conversion behind a generic call, an optimization
// regression in a helper the hot path inlines — and never cries wolf about
// an allocation the compiler proved stack-bound. The one thing it cannot
// see is append growth, which hotalloc covers.
//
// Diagnostics are filtered down to real per-event heap traffic:
//
//   - only "escapes to heap" / "moved to heap" lines count;
//   - constant-string subjects (`"…" escapes to heap`) and any line
//     containing a panic call are cold paths by definition;
//   - lines covered by a call to an escapeAllowedCallees entry are the
//     amortized-growth idiom: the compiler attributes an inlined helper's
//     growth allocation to the call site inside the hot body, so the
//     blessing keys on the callee, not the site.
//
// RunEscape is exposed through `punovet -escape` and wired into make lint
// and CI as its own step.

// escapeAllowedCallees names the helpers whose (inlined) allocations are
// blessed inside hot functions, keyed by types.Func.FullName() with a
// reviewed justification. Every production entry is amortized growth or a
// cold path: the helper allocates only when a dense table doubles (or, for
// Tx.interner, once per standalone-test transaction; for Tx.mustRun, only
// on the panic path), so steady-state events pay zero heap traffic — the
// property TestWarmArenaRunAllocs pins.
var escapeAllowedCallees = map[string]string{
	"(*repro/internal/machine.firstLoadTable).grow":        "amortized doubling of the dense first-load table",
	"(*repro/internal/machine.firstLoadTable).record":      "inlines firstLoadTable.grow (above) into its hot callers",
	"(*repro/internal/machine.Machine).newMsg":             "message-pool miss: allocates only until the pool holds the run's peak in-flight count",
	"(*repro/internal/machine.node).msgTo":                 "inlines Machine.newMsg (above) into the node's send sites",
	"(*repro/internal/htm.lineSet).ensureBits":             "amortized doubling of the read/write-set bitmap",
	"(*repro/internal/coherence.Directory).ensureIdx":      "amortized doubling of the directory's dense index",
	"(*repro/internal/pdes.Coordinator).growRenum":         "amortized doubling of the renumber table",
	"(*repro/internal/htm.Tx).interner":                    "lazy interner for standalone-test transactions; machine-owned Txs share the machine interner and never hit it",
	"(*repro/internal/htm.Tx).mustRun":                     "panic-only state guard; allocates its message on the failure path",
	"repro/internal/lint/testdata/src/escapegate.growSlot": "fixture entry exercising the blessing mechanism",
}

// hotRange is one hot function's line extent in one file.
type hotRange struct {
	start, end int
	name       string
}

// escapeDiag matches one gc diagnostic line: path:line:col: message.
var escapeDiag = regexp.MustCompile(`^([^ \t].*\.go):(\d+):(\d+): (.+)$`)

// escapeGateName is the analyzer name findings and suppressions use; the
// gate is not an *Analyzer (it drives the compiler, not a Pass), but it
// shares the naming scheme so -json output and //puno:allow grammar treat
// it uniformly.
const escapeGateName = "escapegate"

// RunEscape builds the packages matched by patterns (resolved from dir)
// with escape-analysis diagnostics enabled and returns a finding for every
// heap allocation the compiler reports inside a hot function, after the
// cold-path and amortized-growth filters above.
func RunEscape(dir string, patterns []string) ([]Finding, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}

	hot := make(map[string][]hotRange)       // abs file -> hot extents
	blessed := make(map[string]map[int]bool) // abs file -> lines excluded (allowed callees, panic calls)
	suppr := make(map[string]map[int]bool)   // abs file -> lines with //puno:allow escapegate
	markLines := func(m map[string]map[int]bool, file string, from, to int) {
		if m[file] == nil {
			m[file] = make(map[int]bool)
		}
		for l := from; l <= to; l++ {
			m[file][l] = true
		}
	}

	dummy := &Analyzer{Name: escapeGateName}
	for _, pkg := range pkgs {
		pass := newPass(dummy, pkg)
		for i, f := range pass.Files {
			if pass.isTestFile(i) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !pass.isHotFunc(fd) {
					continue
				}
				file := pass.Fset.Position(fd.Pos()).Filename
				hot[file] = append(hot[file], hotRange{
					start: pass.Fset.Position(fd.Pos()).Line,
					end:   pass.Fset.Position(fd.End()).Line,
					name:  fd.Name.Name,
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if isBuiltin(pass, call.Fun, "panic") {
						markLines(blessed, file,
							pass.Fset.Position(call.Pos()).Line, pass.Fset.Position(call.End()).Line)
						return true
					}
					if fn := calleeFunc(pass, call); fn != nil && escapeAllowedCallees[fn.FullName()] != "" {
						markLines(blessed, file,
							pass.Fset.Position(call.Pos()).Line, pass.Fset.Position(call.End()).Line)
					}
					return true
				})
			}
		}
		for _, d := range pass.Directives() {
			if d.Kind == dirSuppress && d.Analyzer == escapeGateName && d.Reason != "" {
				markLines(suppr, d.File, d.AppliesTo, d.AppliesTo)
			}
		}
	}

	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m=2"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m=2 %v failed: %v\n%s", patterns, err, stderr.String())
	}

	var findings []Finding
	for _, line := range strings.Split(stderr.String(), "\n") {
		m := escapeDiag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		// -m=2 prints each decision twice: once with a trailing colon
		// followed by indented flow detail, once plain. Keep the plain one.
		if strings.HasSuffix(msg, ":") {
			continue
		}
		// Constant strings escaping are panic/error text, cold by definition.
		if strings.HasPrefix(msg, `"`) {
			continue
		}
		file := resolveDiagPath(m[1], absDir, hot)
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		fn := ""
		for _, hr := range hot[file] {
			if ln >= hr.start && ln <= hr.end {
				fn = hr.name
				break
			}
		}
		if fn == "" || blessed[file][ln] || suppr[file][ln] {
			continue
		}
		findings = append(findings, Finding{
			Pos:      token.Position{Filename: file, Line: ln, Column: col},
			Analyzer: escapeGateName,
			Message:  fmt.Sprintf("%s in hot function %s (compiler escape analysis); pool it, copy by value, or bless the growth helper in escapeAllowedCallees", msg, fn),
		})
	}
	sortFindings(findings)
	return findings, nil
}

// resolveDiagPath maps a compiler diagnostic path onto the loader's
// absolute filenames. Diagnostics replayed from the build cache keep the
// relative paths of the original compile's working directory — which need
// not be ours — so after trying a cwd-relative join, fall back to suffix
// matching against the files that actually contain hot ranges.
func resolveDiagPath(file, absDir string, hot map[string][]hotRange) string {
	if filepath.IsAbs(file) {
		return file
	}
	if joined := filepath.Join(absDir, file); hot[joined] != nil {
		return joined
	}
	for known := range hot {
		if strings.HasSuffix(known, "/"+file) {
			return known
		}
	}
	return filepath.Join(absDir, file)
}

// calleeFunc resolves a call expression's static callee, if it is a named
// function or method.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
