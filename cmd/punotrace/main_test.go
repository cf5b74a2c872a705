package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestUsageAndMissingFlags(t *testing.T) {
	var out, errb strings.Builder
	if err := run(nil, &out, &errb); err == nil || !strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("no-arg invocation: %v", err)
	}
	if err := run([]string{"nosuch"}, &out, &errb); err == nil || !strings.HasPrefix(err.Error(), "usage:") {
		t.Fatalf("unknown subcommand: %v", err)
	}
	// Workload record/replay is gone: its subcommands are unknown ones.
	for _, sub := range []string{"record", "info", "run"} {
		if err := run([]string{sub, "-i", "x.trace"}, &out, &errb); err == nil || !strings.HasPrefix(err.Error(), "usage:") {
			t.Fatalf("punotrace %s: %v, want the usage error (exit 2)", sub, err)
		}
	}
	if err := run([]string{"events", "-scheme", "nope"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), `unknown scheme "nope"`) || !strings.Contains(err.Error(), "PUNO-notify-only") {
		t.Fatalf("unknown scheme accepted, or the error does not list the valid names: %v", err)
	}
	if err := run([]string{"events", "-workload", "nosuch"}, &out, &errb); err == nil {
		t.Fatal("events with unknown workload accepted")
	}
	if err := run([]string{"diff"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "need either") {
		t.Fatalf("diff without inputs accepted: %v", err)
	}
	if err := run([]string{"diff", "-workload", "intruder", "-scheme-a", "nosuch"}, &out, &errb); err == nil {
		t.Fatal("diff with unknown scheme accepted")
	}
}

// The full event workflow through the real CLI: capture two runs of the
// same configuration, diff them (identical), then diff against a third
// scheme and check the divergence diagnosis against the golden file.
func TestEventsDiffRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.evt")
	b := filepath.Join(dir, "b.evt")
	c := filepath.Join(dir, "c.evt")

	var out, errb strings.Builder
	capture := func(path, scheme string) {
		t.Helper()
		out.Reset()
		if err := run([]string{"events", "-workload", "intruder", "-txper", "2",
			"-scheme", scheme, "-o", path}, &out, &errb); err != nil {
			t.Fatalf("events %s: %v (stderr: %s)", scheme, err, errb.String())
		}
		if !strings.HasPrefix(out.String(), "captured intruder/") {
			t.Fatalf("events output unstable:\n%s", out.String())
		}
	}
	capture(a, "baseline")
	capture(b, "baseline")
	capture(c, "puno")

	out.Reset()
	if err := run([]string{"diff", "-a", a, "-b", b}, &out, &errb); err != nil {
		t.Fatalf("diff identical: %v", err)
	}
	if !strings.HasPrefix(out.String(), "identical: ") {
		t.Fatalf("identical runs not reported identical:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"diff", "-a", a, "-b", c}, &out, &errb); err != nil {
		t.Fatalf("diff divergent: %v", err)
	}
	checkGolden(t, "testdata/diff.golden", out.String())

	// The in-process capture form must print the same diagnosis.
	out.Reset()
	if err := run([]string{"diff", "-workload", "intruder", "-txper", "2",
		"-scheme-a", "baseline", "-scheme-b", "puno"}, &out, &errb); err != nil {
		t.Fatalf("diff capture mode: %v", err)
	}
	checkGolden(t, "testdata/diff.golden", out.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run `go test ./cmd/punotrace -update`): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// Corrupt and truncated event traces must fail loudly through the CLI.
func TestDiffRejectsCorruptTraces(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.evt")
	var out, errb strings.Builder
	if err := run([]string{"events", "-workload", "kmeans", "-txper", "1",
		"-scheme", "baseline", "-o", good}, &out, &errb); err != nil {
		t.Fatalf("events: %v", err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	trunc := filepath.Join(dir, "trunc.evt")
	if err := os.WriteFile(trunc, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.evt")
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0xFF
	if err := os.WriteFile(corrupt, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.evt")
	if err := os.WriteFile(garbage, []byte("not an event trace"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{trunc, corrupt, garbage} {
		if err := run([]string{"diff", "-a", good, "-b", bad}, &out, &errb); err == nil {
			t.Errorf("%s accepted as -b", filepath.Base(bad))
		}
		if err := run([]string{"diff", "-a", bad, "-b", good}, &out, &errb); err == nil {
			t.Errorf("%s accepted as -a", filepath.Base(bad))
		}
	}
	if err := run([]string{"diff", "-a", good, "-b", filepath.Join(dir, "missing.evt")}, &out, &errb); err == nil {
		t.Error("missing -b file accepted")
	}
}
