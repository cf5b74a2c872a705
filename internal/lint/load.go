package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Standard   bool
	DepOnly    bool
}

// Load resolves patterns with the go tool, parses every matched package's
// non-test Go files, and type-checks them against the export data of their
// dependencies — a stdlib-only, offline-capable stand-in for
// go/packages.Load(LoadAllSyntax). Test files are intentionally not loaded:
// punovet's invariants govern simulation code, and table-driven tests
// legitimately range over maps (the exemption the fixture suite pins down).
//
// dir is the directory patterns are resolved from (any directory inside the
// module); explicit ./testdata/... paths work, which is how the analyzer
// fixtures load themselves.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	var targets []*listedPkg
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(exp)
	})

	var pkgs []*Package
	for _, lp := range targets {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: package %s uses cgo, which the loader does not support", lp.ImportPath)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v failed: %v\n%s", patterns, err, stderr.String())
	}
	var out []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

func typecheck(fset *token.FileSet, imp types.Importer, lp *listedPkg) (*Package, error) {
	pkg := &Package{PkgPath: lp.ImportPath, Dir: lp.Dir, Fset: fset}
	for _, name := range lp.GoFiles {
		fn := filepath.Join(lp.Dir, name)
		src, err := os.ReadFile(fn)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		f, err := parser.ParseFile(fset, fn, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkg.Files = append(pkg.Files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, pkg.Files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	pkg.Types = tpkg
	pkg.TypesInfo = info
	return pkg, nil
}
