package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

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

// TestTestFilesExempt pins the maprange/hotalloc test-file exemption: the
// fixture's _test.go ranges a map with no suppression, and punovet still
// reports nothing there (test files are never loaded into a pass).
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

// TestDirectiveEnforcement runs the full driver over the suppress fixture:
// malformed directives and reasonless suppressions are findings themselves.
func TestDirectiveEnforcement(t *testing.T) {
	findings, err := RunAnalyzers(".", []string{"./testdata/src/suppress"}, Default())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s: %s", f.Analyzer, f.Message))
	}
	wants := []string{
		"maprange: map iteration order is nondeterministic",
		"puno-directive: suppression of maprange is missing its required reason",
		"puno-directive: unknown puno directive frobnicate",
		"puno-directive: puno:hot takes no arguments",
		"puno-directive: puno:allow needs an analyzer name",
	}
	for _, w := range wants {
		found := false
		for _, g := range got {
			if strings.HasPrefix(g, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing driver finding starting with %q; got:\n%s", w, strings.Join(got, "\n"))
		}
	}
	if len(got) != len(wants) {
		t.Errorf("driver produced %d findings, want %d:\n%s", len(got), len(wants), strings.Join(got, "\n"))
	}
}

// TestPdesEnrollment pins internal/pdes into punovet's audited and
// no-suppression sets, and exercises every analyzer on the pdes-shaped
// fixture (hot merge loop, dense renum tables, wall-clock-free window
// edges, closure-free cross-shard injection).
func TestPdesEnrollment(t *testing.T) {
	if !audited("repro/internal/pdes") {
		t.Error("repro/internal/pdes is not in punovet's audited set")
	}
	if !noSuppressPkgs["repro/internal/pdes"] {
		t.Error("repro/internal/pdes permits suppressions; the merge core must stay suppression-free")
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

// TestRealTreeClean is the acceptance gate: the repository's own simulation
// packages carry zero findings, and the no-suppression core (sim, noc,
// machine) carries zero //puno: suppressions.
func TestRealTreeClean(t *testing.T) {
	findings, err := RunAnalyzers(".", []string{"repro/..."}, Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
}

// TestAllowlistsResolve guards the structural allowlists against rot: every
// key is a types.Func.FullName() matched by string, so deleting or renaming
// a blessed function would otherwise leave an entry that blesses nothing —
// and would silently bless whatever later takes the name. Fixture entries
// live under testdata, outside repro/..., and are exercised by their own
// analyzer tests.
func TestAllowlistsResolve(t *testing.T) {
	pkgs, err := Load(".", []string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						declared[fn.FullName()] = true
					}
				}
			}
		}
	}
	for list, keys := range map[string][]string{
		"maprangeAllowed":             mapKeys(maprangeAllowed),
		"msglifeAllowed":              mapKeys(msglifeAllowed),
		"escapeAllowedCallees":        mapKeys(escapeAllowedCallees),
		"shardconfineInternerAllowed": mapKeys(shardconfineInternerAllowed),
		"shardconfineWiringAllowed":   mapKeys(shardconfineWiringAllowed),
	} {
		for _, key := range keys {
			if !strings.Contains(key, "/testdata/") && !declared[key] {
				t.Errorf("%s: %q names no function declared in the tree", list, key)
			}
		}
	}
}

func mapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
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

// TestEscapeGateRealTree is the escape half of the acceptance gate: the
// compiler reports zero unblessed heap allocations inside the repo's hot
// functions.
func TestEscapeGateRealTree(t *testing.T) {
	findings, err := RunEscape(".", []string{"repro/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
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
