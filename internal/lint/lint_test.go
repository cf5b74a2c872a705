package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture packages exercise the exemption mechanism through rows of
// their own, appended here so the product table holds product rows only.
func init() {
	const fix = "repro/internal/lint/testdata/src/"
	exemptions = append(exemptions,
		exemption{fix + "maprange.allowlistedRebuild", "maprange", "fixture: rebuilds a map into a fresh one"},
		exemption{fix + "msglife.blessedPoolReclaim", "msglife", "fixture: owns the free list"},
		exemption{fix + "escapegate.growSlot", escapeGateName, "fixture: amortized doubling"},
		exemption{"(*" + fix + "shardconfine.Env).resetWire", "shardconfine/interner", "fixture: serial edge"},
		exemption{"(*" + fix + "shardconfine.Machine).resetWire", "shardconfine/wiring", "fixture: construction point"},
	)
}

// loadTree loads and type-checks repro/... once for the tests that read
// the real tree.
var loadTree = sync.OnceValues(func() ([]*Package, error) {
	return Load(".", []string{"repro/..."})
})

// treeEscapes runs the compiler over repro/... once (seconds) for the
// tests that filter its escape diagnostics.
var treeEscapes = sync.OnceValues(func() ([]escapeDiag, error) {
	return compileEscapes(".", []string{"repro/..."})
})

// treeEscapeFindings is the escape gate on the real tree under the current
// exemptions table, from the shared load and the shared compiler run.
func treeEscapeFindings(t *testing.T) []Finding {
	t.Helper()
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := treeEscapes()
	if err != nil {
		t.Fatal(err)
	}
	return escapeFindings(pkgs, diags)
}

// loadFixture loads one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load(".", []string{"./testdata/src/" + name})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// runOn applies a single analyzer to a loaded package with no driver-level
// package filtering, mirroring x/tools' analysistest.
func runOn(t *testing.T, a *Analyzer, pkg *Package) []Finding {
	t.Helper()
	var out []Finding
	pass := newPass(a, pkg)
	pass.Report = func(d Diagnostic) {
		out = append(out, Finding{Pos: pkg.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return out
}

// wantKey identifies a source line expectations attach to.
type wantKey struct {
	file string
	line int
}

// parseWants extracts `// want "regex" ["regex" ...]` expectations from the
// fixture's loaded files.
func parseWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{pos.Filename, pos.Line}
				rest := strings.TrimSpace(c.Text[idx+len("// want "):])
				for rest != "" {
					if rest[0] != '"' {
						t.Fatalf("%s:%d: malformed want clause %q", pos.Filename, pos.Line, rest)
					}
					end := 1
					for end < len(rest) && rest[end] != '"' {
						if rest[end] == '\\' {
							end++
						}
						end++
					}
					lit, err := strconv.Unquote(rest[:end+1])
					if err != nil {
						t.Fatalf("%s:%d: bad want string %q: %v", pos.Filename, pos.Line, rest[:end+1], err)
					}
					wants[key] = append(wants[key], regexp.MustCompile(lit))
					rest = strings.TrimSpace(rest[end+1:])
				}
			}
		}
	}
	return wants
}

// checkFindings compares findings against want expectations, requiring an
// exact 1:1 match per line.
func checkFindings(t *testing.T, findings []Finding, wants map[wantKey][]*regexp.Regexp) {
	t.Helper()
	unmatched := make(map[wantKey][]*regexp.Regexp, len(wants))
	for k, v := range wants {
		unmatched[k] = append([]*regexp.Regexp(nil), v...)
	}
	for _, f := range findings {
		key := wantKey{f.Pos.Filename, f.Pos.Line}
		rs := unmatched[key]
		hit := -1
		for i, r := range rs {
			if r.MatchString(f.Message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("unexpected finding at %s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
			continue
		}
		unmatched[key] = append(rs[:hit], rs[hit+1:]...)
	}
	for k, rs := range unmatched {
		for _, r := range rs {
			t.Errorf("missing expected finding at %s:%d matching %q", k.file, k.line, r)
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Default() {
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, a.Name)
			checkFindings(t, runOn(t, a, pkg), parseWants(t, pkg))
		})
	}
}

// TestTestFilesExempt pins the test-file exemption: the fixture's _test.go
// ranges a map, and punovet still reports nothing there (test files are
// never loaded into a pass).
func TestTestFilesExempt(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "src", "maprange", "exempt_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "range map[") {
		t.Fatal("fixture rot: exempt_test.go no longer ranges over a map")
	}
	findings, err := RunAnalyzers(".", []string{"./testdata/src/maprange"}, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if strings.HasSuffix(f.Pos.Filename, "_test.go") {
			t.Errorf("finding in exempt test file: %s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Message)
		}
	}
}

// TestDirectiveEnforcement runs the full driver over the directive fixture:
// every //puno: comment other than a bare hot or worker is a finding — the
// retired per-site verbs too, which exempt nothing.
func TestDirectiveEnforcement(t *testing.T) {
	findings, err := RunAnalyzers(".", []string{"./testdata/src/directive"}, Default())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s: %s", f.Analyzer, f.Message))
	}
	wants := []string{
		"puno-directive: unknown puno directive unordered: only //puno:hot and //puno:worker exist",
		"maprange: map iteration order is nondeterministic",
		"puno-directive: unknown puno directive allow: only //puno:hot and //puno:worker exist",
		"maprange: map iteration order is nondeterministic",
		"puno-directive: unknown puno directive frobnicate: only //puno:hot and //puno:worker exist",
		"puno-directive: puno:hot takes no arguments",
	}
	if len(got) != len(wants) {
		t.Fatalf("driver produced %d findings, want %d:\n%s", len(got), len(wants), strings.Join(got, "\n"))
	}
	for i, w := range wants {
		if !strings.HasPrefix(got[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], w)
		}
	}
	for _, g := range got {
		if strings.HasPrefix(g, "puno-directive: unknown") && !strings.Contains(g, "exemptions table") {
			t.Errorf("unknown-verb finding does not point at the exemptions table: %s", g)
		}
	}
}

// TestPdesEnrollment pins internal/pdes into punovet's audited set, and
// exercises every analyzer on the pdes-shaped fixture (hot merge loop,
// dense renum tables, wall-clock-free window edges).
func TestPdesEnrollment(t *testing.T) {
	if !audited("repro/internal/pdes") {
		t.Error("repro/internal/pdes is not in punovet's audited set")
	}
	pkg := loadFixture(t, "pdes")
	var findings []Finding
	for _, a := range Default() {
		findings = append(findings, runOn(t, a, pkg)...)
	}
	checkFindings(t, findings, parseWants(t, pkg))
}

// TestServeEnrollment pins internal/serve into punovet's audited set: the
// serving layer's content-addressed cache is only sound while simulation
// stays deterministic, so its key derivation, artifact encoding, and
// eviction logic are held to the simulator's bar — no wall-clock reads, no
// map-iteration-order dependence — and its hot cache-lookup path sits
// under the escape gate.
func TestServeEnrollment(t *testing.T) {
	if !audited("repro/internal/serve") {
		t.Error("repro/internal/serve is not in punovet's audited set")
	}
}

// TestRealTreeClean is the acceptance gate: the repository's own packages
// carry zero findings, stray //puno: comments included.
func TestRealTreeClean(t *testing.T) {
	findings, err := RunAnalyzers(".", []string{"repro/..."}, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
}

// TestAllowlistsResolve guards the exemptions table against rot. Every
// product row must name a function declared in the tree (the key is a
// types.Func.FullName() matched by string: a renamed function would leave
// a row that exempts nothing, and would silently exempt whatever later
// takes the name), give a reason, name a check that exists, and be
// load-bearing: with that row masked, its check reports a finding — inside
// the function for the AST checks; anywhere for the escape gate, whose
// rows key on the callee and whose findings land in the hot callers (the
// tree is clean under the full table, so any finding is the masked row's).
// The compiler runs once; each escapegate row re-filters its diagnostics.
func TestAllowlistsResolve(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		pkg        *Package
		file       string
		start, end int
	}
	declared := map[string]decl{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						at, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
						declared[fn.FullName()] = decl{pkg, at.Filename, at.Line, end.Line}
					}
				}
			}
		}
	}
	astChecks := map[string]*Analyzer{
		"maprange":              MapRange,
		"msglife":               MsgLife,
		"shardconfine/interner": ShardConfine,
		"shardconfine/wiring":   ShardConfine,
	}
	full := exemptions
	defer func() { exemptions = full }()
	for i, row := range full {
		if strings.Contains(row.fn, "/testdata/") {
			continue // fixture rows: exercised by their analyzers' fixture tests
		}
		d, ok := declared[row.fn]
		if !ok {
			t.Errorf("%s row %q names no function declared in the tree", row.check, row.fn)
			continue
		}
		if row.reason == "" {
			t.Errorf("%s row %q has no reason", row.check, row.fn)
		}
		exemptions = append(append([]exemption(nil), full[:i]...), full[i+1:]...)
		n := 0
		switch a := astChecks[row.check]; {
		case a != nil:
			for _, f := range runOn(t, a, d.pkg) {
				if f.Pos.Filename == d.file && f.Pos.Line >= d.start && f.Pos.Line <= d.end {
					n++
				}
			}
		case row.check == escapeGateName:
			n = len(treeEscapeFindings(t))
		default:
			t.Errorf("row %q names check %q, which does not exist", row.fn, row.check)
			continue
		}
		if n == 0 {
			t.Errorf("%s row %q is stale: with it masked, the check still reports nothing", row.check, row.fn)
		}
	}
}

// TestHandlersAreLongLivedStructs is the type-system half of what the
// retired handlerfunc analyzer guarded (the escape gate is the other: see
// hotClosureHandler in the escapegate fixture). A closure reaches the
// scheduler only through a func-kinded sim.Handler adapter, so every type
// with an OnEvent(any, uint64) method must be a struct behind a pointer
// receiver; and the gate sees a scheduling call only inside a hot
// function, so every AtEvent/AfterEvent site must sit in one.
func TestHandlersAreLongLivedStructs(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	schedulers := map[string]bool{
		"(*repro/internal/sim.Engine).AtEvent":    true,
		"(*repro/internal/sim.Engine).AfterEvent": true,
	}
	for _, pkg := range pkgs {
		pass := newPass(nil, pkg)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				at := pkg.Fset.Position(fd.Pos())
				if isHandlerOnEvent(pass, fd) {
					recv := pkg.TypesInfo.Defs[fd.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
					ptr, ok := recv.(*types.Pointer)
					if ok {
						_, ok = ptr.Elem().Underlying().(*types.Struct)
					}
					if !ok {
						t.Errorf("%s:%d: sim.Handler implemented on %s, want a pointer to a struct", at.Filename, at.Line, recv)
					}
				}
				if pass.isHotFunc(fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if fn := calleeFunc(pass, call); fn != nil && schedulers[fn.FullName()] {
							t.Errorf("%s:%d: %s schedules a sim.Handler outside a hot function; mark it //puno:hot so the escape gate sees the call", at.Filename, at.Line, fd.Name.Name)
						}
					}
					return true
				})
			}
		}
	}
}

// TestEscapeGateFixture matches the compiler-backed gate against the
// escapegate fixture's want annotations: real heap escapes in hot
// functions are findings; panic paths, cold functions, and blessed
// amortized-growth callees are filtered.
func TestEscapeGateFixture(t *testing.T) {
	pkg := loadFixture(t, "escapegate")
	findings, err := RunEscape(".", []string{"./testdata/src/escapegate"})
	if err != nil {
		t.Fatal(err)
	}
	checkFindings(t, findings, parseWants(t, pkg))
}

// TestEscapeGateIndependentOfBuildDir compiles the escapegate fixture from
// two directories and wants the same findings from both. The build cache
// replays one compile's diagnostics for the other, so the gate must read
// the same file names whichever directory compiled the package first.
func TestEscapeGateIndependentOfBuildDir(t *testing.T) {
	here, err := RunEscape(".", []string{"./testdata/src/escapegate"})
	if err != nil {
		t.Fatal(err)
	}
	root, err := RunEscape("../..", []string{"./internal/lint/testdata/src/escapegate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(here) == 0 {
		t.Fatal("the fixture produced no findings; the comparison is vacuous")
	}
	if !reflect.DeepEqual(here, root) {
		t.Fatalf("findings depend on the build directory:\nfrom internal/lint: %v\nfrom the module root: %v", here, root)
	}
}

// TestEscapeGateRealTree is the escape half of the acceptance gate: the
// compiler reports zero unblessed heap allocations inside the repo's hot
// functions.
func TestEscapeGateRealTree(t *testing.T) {
	for _, f := range treeEscapeFindings(t) {
		t.Errorf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
}

// TestAnalyzerTimings pins the -v plumbing: every analyzer in the run gets
// a timing entry, in suite order.
func TestAnalyzerTimings(t *testing.T) {
	_, timings, err := RunAnalyzersTimed(".", []string{"./testdata/src/maprange"}, Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != len(Default()) {
		t.Fatalf("got %d timings, want %d", len(timings), len(Default()))
	}
	for i, a := range Default() {
		if timings[i].Analyzer != a.Name {
			t.Errorf("timing %d is %s, want %s", i, timings[i].Analyzer, a.Name)
		}
	}
}

// TestWorkerDirective pins //puno:worker parsing: bare form marks the next
// declaration, and arguments are malformed.
func TestWorkerDirective(t *testing.T) {
	if d := parseDirective("//puno:worker"); d.Kind != dirWorker {
		t.Errorf("bare //puno:worker parsed as kind %d, want dirWorker", d.Kind)
	}
	if d := parseDirective("//puno:worker runWindow"); d.Kind != dirMalformed {
		t.Errorf("//puno:worker with arguments parsed as kind %d, want dirMalformed", d.Kind)
	}
}

// TestPdesWorkersMarked pins the PR 9 audit fix: the PDES window runner
// carries //puno:worker, so shardconfine actually polices the worker
// goroutine's entry path in the real tree.
func TestPdesWorkersMarked(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "pdes", "pdes.go"))
	if err != nil {
		t.Fatal(err)
	}
	const fn = "func runWindow("
	idx := strings.Index(string(raw), fn)
	if idx < 0 {
		t.Fatalf("fixture rot: %s not found in internal/pdes/pdes.go", fn)
	}
	head := string(raw[:idx])
	tail := head[strings.LastIndex(head[:len(head)-1], "\n\n"):]
	if !strings.Contains(tail, "//puno:worker") {
		t.Errorf("%s is not marked //puno:worker; shardconfine no longer polices it", fn)
	}
}

// TestFireWakeupsRegressionCaught re-creates the PR 1 bug class in a throwaway
// module-external file check: a map range added to an audited package is
// reported. (Uses the maprange fixture as the stand-in audited package; the
// driver treats testdata/src packages as audited.)
func TestFireWakeupsRegressionCaught(t *testing.T) {
	findings, err := RunAnalyzers(".", []string{"./testdata/src/maprange"}, []*Analyzer{MapRange})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("maprange reported nothing for a package full of unsuppressed map ranges")
	}
}
