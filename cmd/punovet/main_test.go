package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestRealTreeExitsClean is the smoke half of the acceptance criterion: the
// repository's own packages produce no findings and run exits nil.
func TestRealTreeExitsClean(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"repro/..."}, &out, &errb); err != nil {
		t.Fatalf("punovet on the real tree failed: %v\nstdout:\n%s", err, out.String())
	}
	if out.String() != "" {
		t.Fatalf("punovet printed findings on a clean tree:\n%s", out.String())
	}
}

// TestBadFixtureExitsNonZero drives run against a fixture package riddled
// with violations: findings print in file:line: analyzer: message form and
// the command returns an error (exit 1 in main).
func TestBadFixtureExitsNonZero(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"repro/internal/lint/testdata/src/maprange"}, &out, &errb)
	if err == nil {
		t.Fatalf("punovet accepted a bad fixture; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "finding") {
		t.Fatalf("error does not count findings: %v", err)
	}
	if !strings.Contains(out.String(), "maprange.go") ||
		!strings.Contains(out.String(), ": maprange: ") {
		t.Fatalf("findings not in file:line: analyzer: message form:\n%s", out.String())
	}
}

// analyzerNames is the suite as lint.Default() defines it.
func analyzerNames() []string {
	var names []string
	for _, a := range lint.Default() {
		names = append(names, a.Name)
	}
	return names
}

func TestUsageListsAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-h"}, &out, &errb); err == nil {
		t.Fatal("-h should return flag.ErrHelp")
	}
	for _, name := range append(analyzerNames(), "escapegate", "exemptions table") {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("usage does not mention %s:\n%s", name, errb.String())
		}
	}
}

// TestExitCodeClasses pins the findings-vs-driver-error split main maps to
// exit 1 vs exit 2: a dirty fixture yields a findingsError, while a
// nonexistent pattern yields a plain driver error.
func TestExitCodeClasses(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"repro/internal/lint/testdata/src/maprange"}, &out, &errb)
	var fe findingsError
	if !errors.As(err, &fe) {
		t.Fatalf("dirty fixture returned %T (%v), want findingsError", err, err)
	}
	if fe <= 0 {
		t.Fatalf("findingsError carries count %d, want > 0", int(fe))
	}

	out.Reset()
	errb.Reset()
	err = run([]string{"repro/internal/no/such/package"}, &out, &errb)
	if err == nil {
		t.Fatal("nonexistent package pattern succeeded")
	}
	if errors.As(err, &fe) {
		t.Fatalf("driver failure classified as findings: %v", err)
	}
}

// TestJSONOutput pins the -json wire form: a valid JSON array with
// analyzer/file/line/message per finding, and an empty (non-null) array on
// a clean tree.
func TestJSONOutput(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-json", "repro/internal/lint/testdata/src/maprange"}, &out, &errb)
	var fe findingsError
	if !errors.As(err, &fe) {
		t.Fatalf("dirty fixture returned %v, want findingsError", err)
	}
	var findings []jsonFinding
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) != int(fe) {
		t.Fatalf("JSON carries %d findings, error counts %d", len(findings), int(fe))
	}
	for _, f := range findings {
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}

	out.Reset()
	if err := run([]string{"-json", "repro/internal/lint"}, &out, &errb); err != nil {
		t.Fatalf("clean package failed: %v", err)
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean tree JSON = %q, want []", got)
	}
}

// TestVerboseTimings pins -v: one timing line per analyzer on stderr.
func TestVerboseTimings(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-v", "repro/internal/lint"}, &out, &errb); err != nil {
		t.Fatalf("punovet -v failed: %v", err)
	}
	for _, name := range analyzerNames() {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("-v summary missing %s:\n%s", name, errb.String())
		}
	}
}

// TestEscapeMode drives `punovet -escape` both ways: findings on the
// escapegate fixture, clean on the real tree.
func TestEscapeMode(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-escape", "repro/internal/lint/testdata/src/escapegate"}, &out, &errb)
	var fe findingsError
	if !errors.As(err, &fe) {
		t.Fatalf("-escape on the fixture returned %v, want findingsError", err)
	}
	if !strings.Contains(out.String(), ": escapegate: ") {
		t.Fatalf("escape findings not attributed to escapegate:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if err := run([]string{"-escape", "repro/..."}, &out, &errb); err != nil {
		t.Fatalf("-escape on the real tree failed: %v\n%s", err, out.String())
	}
}
