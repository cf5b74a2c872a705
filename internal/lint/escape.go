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
//   - lines covered by a call to a function with an "escapegate" row in
//     the exemptions table are the amortized-growth idiom (see there).
//
// RunEscape is exposed through `punovet -escape` and wired into make lint
// and CI as its own step.

// escapeGateName is the analyzer name the gate's findings and its
// exemptions rows use; the gate is not an *Analyzer (it drives the
// compiler, not a Pass), but it shares the naming scheme so -json output
// treats it uniformly.
const escapeGateName = "escapegate"

// hotRange is one hot function's line extent in one file.
type hotRange struct {
	start, end int
	name       string
}

// escapeDiag is one heap-allocation decision the compiler printed.
type escapeDiag struct {
	file      string // as a -trimpath build prints it: import/path/file.go
	line, col int
	msg       string
}

// escapeDiagLine matches one gc diagnostic line: path:line:col: message.
var escapeDiagLine = regexp.MustCompile(`^([^ \t].*\.go):(\d+):(\d+): (.+)$`)

// RunEscape builds the packages matched by patterns (resolved from dir)
// with escape-analysis diagnostics enabled and returns a finding for every
// heap allocation the compiler reports inside a hot function, after the
// cold-path and amortized-growth filters above.
func RunEscape(dir string, patterns []string) ([]Finding, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	diags, err := compileEscapes(dir, patterns)
	if err != nil {
		return nil, err
	}
	return escapeFindings(pkgs, diags), nil
}

// compileEscapes runs the compiler over patterns and returns every
// allocation it reports, hot or not. It is the slow half of the gate
// (seconds) and does not depend on the exemptions table;
// TestAllowlistsResolve runs it once and re-filters per masked row.
//
// The build cache replays a compile's diagnostics verbatim, so without
// -trimpath a file is named relative to whichever directory compiled its
// package first. With it, every file is "import/path/file.go" from anywhere.
func compileEscapes(dir string, patterns []string) ([]escapeDiag, error) {
	cmd := exec.Command("go", append([]string{"build", "-trimpath", "-gcflags=-m=2"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m=2 %v failed: %v\n%s", patterns, err, stderr.String())
	}
	var diags []escapeDiag
	for _, line := range strings.Split(stderr.String(), "\n") {
		m := escapeDiagLine.FindStringSubmatch(line)
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
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, escapeDiag{file: m[1], line: ln, col: col, msg: msg})
	}
	return diags, nil
}

// escapeFindings keeps the diagnostics that land inside a hot function of
// pkgs on a line that neither a panic call nor a call to an exempt callee
// covers. A diagnostic names its file as compileEscapes' -trimpath build
// prints it, which maps onto the loader's filename through the package.
func escapeFindings(pkgs []*Package, diags []escapeDiag) []Finding {
	files := make(map[string]string)         // import/path/file.go -> loader filename
	hot := make(map[string][]hotRange)       // loader filename -> hot extents
	blessed := make(map[string]map[int]bool) // loader filename -> lines excluded (exempt callees, panic calls)
	for _, pkg := range pkgs {
		pass := newPass(nil, pkg)
		for _, f := range pass.Files {
			file := pass.Fset.Position(f.Pos()).Filename
			files[pkg.PkgPath+"/"+filepath.Base(file)] = file
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !pass.isHotFunc(fd) {
					continue
				}
				hot[file] = append(hot[file], hotRange{
					start: pass.Fset.Position(fd.Pos()).Line,
					end:   pass.Fset.Position(fd.End()).Line,
					name:  fd.Name.Name,
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if ok && (isBuiltin(pass, call.Fun, "panic") || exempt(escapeGateName, calleeFunc(pass, call))) {
						if blessed[file] == nil {
							blessed[file] = make(map[int]bool)
						}
						for l := pass.Fset.Position(call.Pos()).Line; l <= pass.Fset.Position(call.End()).Line; l++ {
							blessed[file][l] = true
						}
					}
					return true
				})
			}
		}
	}

	var findings []Finding
	for _, d := range diags {
		file, ok := files[d.file] // not ok: a file of no loaded package
		if !ok || blessed[file][d.line] {
			continue
		}
		for _, hr := range hot[file] {
			if d.line >= hr.start && d.line <= hr.end {
				findings = append(findings, Finding{
					Pos:      token.Position{Filename: file, Line: d.line, Column: d.col},
					Analyzer: escapeGateName,
					Message:  fmt.Sprintf("%s in hot function %s (compiler escape analysis); pool it, copy by value, or give the growth helper a reviewed row in the exemptions table", d.msg, hr.name),
				})
				break
			}
		}
	}
	sortFindings(findings)
	return findings
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
