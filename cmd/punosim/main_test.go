package main

import (
	"strings"
	"testing"
)

func TestRunPrintsSummaryLine(t *testing.T) {
	var out, errb strings.Builder
	err := run([]string{"-workload", "kmeans", "-txper", "2", "-q", "-seed", "7"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if !strings.HasPrefix(out.String(), "kmeans/Baseline: cycles=") {
		t.Fatalf("summary line missing or unstable:\n%s", out.String())
	}
}

// TestSchemeNameAnyCase resolves a non-paper scheme by an upper-cased name.
func TestSchemeNameAnyCase(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-workload", "kmeans", "-txper", "2", "-q", "-scheme", "PUNO-PUSH"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "kmeans/PUNO-Push: cycles=") {
		t.Fatalf("-scheme PUNO-PUSH did not run PUNO-Push:\n%s", out.String())
	}
}

func TestRunDetailedStats(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-workload", "kmeans", "-txper", "2", "-scheme", "puno"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"txGETX=", "abort causes:", "G/D="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("detailed output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTraceStreamsMatchingEvents drives -trace: every event line it prints
// is a rendered event naming the substring, there is at least one, and the
// same run without -trace prints none.
func TestTraceStreamsMatchingEvents(t *testing.T) {
	args := []string{"-workload", "kmeans", "-txper", "2", "-scheme", "puno"}
	eventLines := func(args []string) []string {
		t.Helper()
		var out, errb strings.Builder
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run %v: %v (stderr: %s)", args, err, errb.String())
		}
		var evs []string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "cycle=") {
				evs = append(evs, l)
			}
		}
		return evs
	}
	traced := eventLines(append(args, "-trace", "0x40"))
	if len(traced) == 0 {
		t.Fatal("-trace 0x40 printed no event line")
	}
	for _, l := range traced {
		f := strings.Fields(l)
		if !strings.Contains(l, "0x40") || len(f) < 4 ||
			!strings.HasPrefix(f[1], "node=") || !strings.HasPrefix(f[2], "line=") {
			t.Fatalf("trace line %q is not a rendered event naming 0x40", l)
		}
	}
	if plain := eventLines(args); len(plain) != 0 {
		t.Fatalf("a run without -trace printed %d event lines, first %q", len(plain), plain[0])
	}
}

func TestRunRejectsUnknownWorkloadAndScheme(t *testing.T) {
	var out, errb strings.Builder
	if err := run([]string{"-workload", "nosuch"}, &out, &errb); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// The miss names the valid schemes (the one resolver, machine.SchemeByName).
	if err := run([]string{"-scheme", "nope"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), `unknown scheme "nope"`) || !strings.Contains(err.Error(), "PUNO-notify-only") {
		t.Fatalf("unknown scheme accepted, or the error does not list the valid names: %v", err)
	}
	if err := run([]string{"-bogusflag"}, &out, &errb); err == nil {
		t.Fatal("bogus flag accepted")
	}
}
