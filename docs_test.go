package puno

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestDocsResolve holds DESIGN.md, README.md and EXPERIMENTS.md to the
// tree, the way TestAllowlistsResolve holds the exemptions table to it:
// every name the three documents put in backticks (and every command line
// of their fenced blocks) must resolve, or the sentence around it has
// rotted. docProblems has the grammar.
func TestDocsResolve(t *testing.T) {
	tree, err := buildDocTree()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("checker", func(t *testing.T) { checkerCatchesStaleNames(t, tree) })
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		t.Run(doc, func(t *testing.T) {
			text, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tree.docProblems(doc, string(text)) {
				t.Error(p)
			}
		})
	}
}

// The checker itself, on the five names the design document carried for
// months after the code they named was gone (an engine entry point, a send
// helper, two packages and a fixture directory), the two ways users once
// reached the PDES coordinator, one stale name of each other kind (a binary
// format version among them, and a type name two packages declare), and the
// names it must leave alone.
func checkerCatchesStaleNames(t *testing.T, tree *docTree) {
	stale := []string{
		"`Engine.StepBefore`", "`Machine.sendMsg`", "`internal/detmap`",
		"`internal/stats`", "`testdata/src/handlerfunc`",
		"`make bench-pdes PDES_BENCHTIME=2s`", "`punosim -shards N`",
		"`sim.NoSuchFunc`", "`nosuchpkg.Thing`", "`no_such_file.go`", "`puno.go:99999`",
		"`make bench-serve`", "`punotrace record -o x.trace`", "`punosim -no-such-flag`",
		"`-no-such-flag`", "`TestNoSuchTest`", "`sim.no_such_metric`", "`punores/9`", "`Cache.Put`",
		"```\ngo run ./cmd/punotrace run -a k.evt\n```",
	}
	for _, s := range stale {
		if got := tree.docProblems("seeded", "text\n"+s+"\ntext\n"); len(got) != 1 {
			t.Errorf("%s: %d problems, want 1: %v", s, len(got), got)
		}
	}
	sound := "`Engine.AtEvent` `node.msgTo` `sim.Engine.Now` `cm.ATSGroup.Serialized` `*sim.RNG` `serve.Cache.Put` " +
		"`internal/{sim,noc}` `internal/lint/testdata/src/escapegate` `events.go` `machine/encode.go` " +
		"`make lint` `cmd/experiments -exp table1` " +
		"`-cache-dir` `TestDocsResolve` `BenchmarkSweepParallelism/serial` `sim.kernel_ns_per_event` " +
		"`runtime.convT64` `http.Post` `go test -race ./...` `bash bench/run.sh --trace 1` `map[mem.Line]` " +
		"`SHA-256(punokey/1 ‖ punocfg/5(config))`\n" +
		"```\npunotrace diff -a a.evt -b b.evt   # comment -not-a-flag\nmake race\n```\n"
	if got := tree.docProblems("seeded", sound); len(got) != 0 {
		t.Errorf("sound names reported: %v", got)
	}
}

// docTree is what a document's names resolve against.
type docTree struct {
	pkgs    map[string][]*types.Package // by package name; commands (main) left out
	types   map[string][]*types.TypeName
	std     map[string]bool            // last path element of every standard-library package
	files   []string                   // every file and directory, slash-separated, from the root
	tests   map[string]bool            // Test/Fuzz/Benchmark functions of every _test.go
	targets map[string]bool            // the Makefile's .PHONY
	metrics map[string]bool            // BENCHMARK.json workload and metric names
	strs    map[string]bool            // values of the module's package-level string constants
	clis    map[string]map[string]bool // command -> its flags
	subs    map[string]map[string]bool // command -> its subcommands (flag sets named other than the command)
}

func buildDocTree() (*docTree, error) {
	tr := &docTree{
		pkgs: map[string][]*types.Package{}, types: map[string][]*types.TypeName{},
		std: map[string]bool{}, tests: map[string]bool{}, targets: map[string]bool{},
		metrics: map[string]bool{}, strs: map[string]bool{}, clis: map[string]map[string]bool{}, subs: map[string]map[string]bool{},
	}
	loaded, err := lint.Load(".", []string{"./..."})
	if err != nil {
		return nil, err
	}
	for _, p := range loaded {
		if p.Types.Name() == "main" {
			if strings.HasPrefix(p.PkgPath, "repro/cmd/") {
				tr.addCLI(p)
			}
			continue
		}
		tr.pkgs[p.Types.Name()] = append(tr.pkgs[p.Types.Name()], p.Types)
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.TypeName:
				tr.types[name] = append(tr.types[name], obj)
			case *types.Const:
				if obj.Val().Kind() == constant.String {
					tr.strs[constant.StringVal(obj.Val())] = true
				}
			}
		}
	}
	out, err := exec.Command("go", "list", "std").Output()
	if err != nil {
		return nil, fmt.Errorf("go list std: %v", err)
	}
	for _, p := range strings.Fields(string(out)) {
		tr.std[path.Base(p)] = true
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || p == "." {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
			return filepath.SkipDir // .git, the benchmark's .bench_build
		}
		tr.files = append(tr.files, filepath.ToSlash(p))
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil // a fixture that is not meant to parse
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testName.MatchString(fd.Name.Name) {
				tr.tests[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, target := range strings.Fields(rest) {
				tr.targets[target] = true
			}
		}
	}

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	for _, list := range [][]struct{ Name string }{bm.Workloads, bm.EndToEnd, bm.PerLayer} {
		for _, m := range list {
			tr.metrics[m.Name] = true
		}
	}
	return tr, nil
}

// addCLI records the flags and subcommands of one command: every flag
// definition (a call into package flag whose first or second argument is
// the name) and every flag.NewFlagSet.
func (tr *docTree) addCLI(p *lint.Package) {
	name := path.Base(p.PkgPath)
	flags, subs := map[string]bool{}, map[string]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			for i, arg := range call.Args {
				lit, ok := arg.(*ast.BasicLit)
				if i > 1 || !ok || lit.Kind != token.STRING {
					continue
				}
				s, _ := strconv.Unquote(lit.Value)
				if fn.Name() == "NewFlagSet" {
					if s != name {
						subs[s] = true
					}
				} else if flagDef.MatchString(fn.Name()) {
					flags[s] = true
				}
				break
			}
			return true
		})
	}
	tr.clis[name], tr.subs[name] = flags, subs
}

var (
	fenceLine  = regexp.MustCompile("^\\s*```")
	codeSpan   = regexp.MustCompile("`([^`\n]+)`")
	testName   = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z_]\w*$`)
	formatName = regexp.MustCompile(`puno[a-z]+/\d+`)
	fileName   = regexp.MustCompile(`^[\w./-]+\.(go|md|json|txt|golden|sh|yml)(:\d+)?$`)
	qualified  = regexp.MustCompile(`^[*&]?([A-Za-z_]\w+)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?$`)
	flagWord   = regexp.MustCompile(`^-([a-z][\w-]*)(=.*)?$`)
	// flagDef matches package flag's definition functions: Bool … TextVar, Var, Func.
	flagDef  = regexp.MustCompile(`^(Bool|Int(64)?|Uint(64)?|String|Float64|Duration|Text)?(Var|Func)?$`)
	treeDirs = []string{"internal/", "cmd/", "testdata/", "examples/", "bench/", ".github/"}
)

// docProblems returns one line per name in text that does not resolve.
//
// Inside an inline code span, word by word: a benchmark workload or metric
// name (BENCHMARK.json) is itself; a word under internal/, cmd/, testdata/,
// examples/, bench/ or .github/ is a path that must exist ({a,b} expands,
// /... and :line are understood); a word ending in a source or data
// extension is a file some path in the tree ends with; Test…, Fuzz… and
// Benchmark… are test functions; X.Y and X.Y.Z must resolve when X names a
// package or a type of this module (a bare type name two packages declare
// for distinct types must be qualified), are left alone when X is a standard
// library package (out of scope by import path) or a one-letter receiver in
// a code excerpt, and are stale otherwise. Across the span: after `make`
// comes a .PHONY target; after a command of cmd/ (bare, or as a cmd/ path)
// come its subcommand, if it has any, and its flags; a span that is only a
// flag must be a flag of some command (so a go-tool flag is written with its
// tool). Fenced blocks get the path, file, make and command rules line by
// line. In spans and fenced lines alike, every binary format name
// (puno<fmt>/<N>) must be the value of a string constant of the module:
// cfgMagic, resMagic, evtMagic, keyMagic or wlMagic.
func (tr *docTree) docProblems(doc, text string) []string {
	var problems []string
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		bad := func(format string, args ...any) {
			problems = append(problems, fmt.Sprintf("%s:%d: %s", doc, i+1, fmt.Sprintf(format, args...)))
		}
		if fenceLine.MatchString(line) {
			fenced = !fenced
			continue
		}
		if fenced {
			tr.checkSpan(line, true, bad)
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			tr.checkSpan(m[1], false, bad)
		}
	}
	return problems
}

func (tr *docTree) checkSpan(span string, fenced bool, bad func(string, ...any)) {
	for _, f := range formatName.FindAllString(span, -1) {
		if !tr.strs[f] {
			bad("`%s`: no string constant of the tree is the format name %s", span, f)
		}
	}
	if cut := strings.Index(span, " #"); fenced && cut >= 0 {
		span = span[:cut] // shell comment
	}
	words := strings.Fields(span)
	if len(words) == 0 {
		return
	}
	if m := flagWord.FindStringSubmatch(words[0]); m != nil && !fenced {
		for _, flags := range tr.clis {
			if flags[m[1]] {
				return
			}
		}
		bad("`%s`: no command under cmd/ defines -%s (write a go-tool flag with its tool: `go test -race`)", span, m[1])
		return
	}
	for i := 0; i < len(words); i++ {
		w := strings.Trim(words[i], "(),;:\"'")
		switch {
		case w == "make" && i+1 < len(words):
			if target := strings.Trim(words[i+1], "(),;:\"'"); !strings.Contains(target, "=") && !tr.targets[target] {
				bad("`%s`: the Makefile has no target %q", span, target)
			}
			i++
		case tr.clis[cliName(w)] != nil:
			i = tr.checkCommand(span, cliName(w), words, i+1, bad) - 1
		case tr.metrics[w] || strings.ContainsAny(w, "<>*…"):
		case hasTreeDir(w):
			tr.checkPath(span, w, bad)
		case fileName.MatchString(w):
			tr.checkFile(span, w, false, bad)
		case fenced: // a shell line or Go excerpt: dotted words are not names of ours
		case testName.MatchString(strings.SplitN(w, "/", 2)[0]):
			if name := strings.SplitN(w, "/", 2)[0]; !tr.tests[name] {
				bad("`%s`: no _test.go declares %s", span, name)
			}
		default:
			// Type.Method(args): the name is what precedes the call.
			if m := qualified.FindStringSubmatch(strings.SplitN(w, "(", 2)[0]); m != nil {
				if why := tr.resolve(m[1], m[2], m[3]); why != "" {
					bad("`%s`: %s", span, why)
				}
			}
		}
	}
}

// cliName maps punosim, cmd/punosim and ./cmd/punosim to "punosim".
func cliName(w string) string {
	w = strings.TrimPrefix(w, "./")
	if rest, ok := strings.CutPrefix(w, "cmd/"); ok {
		return rest
	}
	if strings.Contains(w, "/") {
		return ""
	}
	return w
}

// checkCommand checks the subcommand and flags that follow a command's name
// and returns the index of the first word that is not the command's.
func (tr *docTree) checkCommand(span, cli string, words []string, i int, bad func(string, ...any)) int {
	if subs := tr.subs[cli]; len(subs) > 0 && i < len(words) && !strings.HasPrefix(words[i], "-") {
		if sub := strings.Trim(words[i], "(),;:|"); sub != "" && !subs[sub] && !strings.ContainsAny(sub, "<>…") {
			bad("`%s`: %s has no subcommand %q", span, cli, sub)
		}
		i++
	}
	for ; i < len(words); i++ {
		switch w := words[i]; {
		case w == "|" || w == "&&" || w == "&" || w == ";" || strings.HasPrefix(w, ">"):
			return i
		case flagWord.MatchString(w):
			if name := flagWord.FindStringSubmatch(w)[1]; !tr.clis[cli][name] {
				bad("`%s`: %s defines no flag -%s", span, cli, name)
			}
		}
	}
	return i
}

func hasTreeDir(w string) bool {
	w = strings.TrimPrefix(w, "./")
	for _, d := range treeDirs {
		if strings.HasPrefix(w, d) {
			return true
		}
	}
	return false
}

func (tr *docTree) checkPath(span, w string, bad func(string, ...any)) {
	w = strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(w, "./"), "/..."), "/")
	if open, end := strings.Index(w, "{"), strings.Index(w, "}"); open >= 0 && end > open {
		for _, alt := range strings.Split(w[open+1:end], ",") {
			tr.checkPath(span, w[:open]+alt+w[end+1:], bad)
		}
		return
	}
	tr.checkFile(span, w, true, bad)
}

// checkFile resolves a file or directory name, optionally with :line: a
// path from the root when rooted, else any path of the tree that ends
// with it.
func (tr *docTree) checkFile(span, w string, rooted bool, bad func(string, ...any)) {
	name, lineNo, hasLine := strings.Cut(w, ":")
	for _, f := range tr.files {
		if f != name && (rooted || !strings.HasSuffix(f, "/"+name)) {
			continue
		}
		if hasLine {
			want, _ := strconv.Atoi(lineNo)
			if src, err := os.ReadFile(f); err != nil || strings.Count(string(src), "\n") < want {
				continue
			}
		}
		return
	}
	bad("`%s`: nothing in the tree is named %s", span, w)
}

// resolve reports why x.y(.z) names nothing, or "" when it does or is out
// of scope.
func (tr *docTree) resolve(x, y, z string) string {
	if pkgs := tr.pkgs[x]; pkgs != nil {
		for _, p := range pkgs {
			obj := p.Scope().Lookup(y)
			if obj == nil {
				continue
			}
			tn, isType := obj.(*types.TypeName)
			if z == "" || (isType && hasMember(tn, z)) {
				return ""
			}
		}
		if z != "" {
			return fmt.Sprintf("package %s has no %s.%s", x, y, z)
		}
		return fmt.Sprintf("package %s declares no %s", x, y)
	}
	if tns := tr.types[x]; tns != nil {
		if pkgs := distinctTypes(tns); len(pkgs) > 1 {
			return fmt.Sprintf("type %s is declared in packages %s: qualify it", x, strings.Join(pkgs, ", "))
		}
		if hasMember(tns[0], y) {
			return ""
		}
		return fmt.Sprintf("type %s has no method or field %s", x, y)
	}
	if tr.std[x] {
		return ""
	}
	return fmt.Sprintf("%s is neither a package nor a type of this module (nor a standard-library package)", x)
}

// distinctTypes returns the sorted package names of the distinct types
// tns name: an alias (puno.Machine = machine.Machine) and its target are
// one type.
func distinctTypes(tns []*types.TypeName) []string {
	seen := map[string]bool{}
	var pkgs []string
	for _, tn := range tns {
		if id := types.TypeString(types.Unalias(tn.Type()), nil); !seen[id] {
			seen[id] = true
			pkgs = append(pkgs, tn.Pkg().Name())
		}
	}
	sort.Strings(pkgs)
	return pkgs
}

func hasMember(tn *types.TypeName, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
	return obj != nil
}
