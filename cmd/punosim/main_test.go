package main

import (
	"strconv"
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

// TestTimelineSumsToSummary drives -timeline on one PUNO and one Baseline
// point. The rows come from the event stream, so their commits, aborts and
// traffic must add up exactly to the summary line's totals, which come from
// the Result; row cycles must strictly increase, live attempts must never
// go negative, and the last row must close the interval holding the run's
// last event, with none live. -trace cycle= prints every event through the
// same sink, which is where the last event's cycle comes from.
func TestTimelineSumsToSummary(t *testing.T) {
	const width = 2000
	for _, scheme := range []string{"puno", "baseline"} {
		t.Run(scheme, func(t *testing.T) {
			var out, errb strings.Builder
			args := []string{"-workload", "intruder", "-txper", "4", "-scheme", scheme,
				"-timeline", strconv.Itoa(width), "-trace", "cycle="}
			if err := run(args, &out, &errb); err != nil {
				t.Fatalf("run %v: %v (stderr: %s)", args, err, errb.String())
			}
			lines := strings.Split(out.String(), "\n")
			var summary string
			var lastEvent uint64
			for _, l := range lines {
				if c, ok := strings.CutPrefix(l, "cycle="); ok {
					n, err := strconv.ParseUint(strings.Fields(c)[0], 10, 64)
					if err != nil {
						t.Fatalf("event line %q: %v", l, err)
					}
					lastEvent = n
				} else if strings.HasPrefix(l, "intruder/") {
					summary = l
				}
			}
			total := map[string]uint64{}
			for _, f := range strings.Fields(summary) {
				if k, v, ok := strings.Cut(f, "="); ok && (k == "commits" || k == "aborts" || k == "traffic") {
					n, err := strconv.ParseUint(v, 10, 64)
					if err != nil {
						t.Fatalf("summary field %q: %v", f, err)
					}
					total[k] = n
				}
			}
			if len(total) != 3 || total["commits"] == 0 || total["aborts"] == 0 {
				t.Fatalf("summary line lacks commits, aborts or traffic, or the point is too tame: %q", summary)
			}

			sum := map[string]uint64{}
			var rows, prev, live uint64
			inTable := false
			for _, l := range lines {
				f := strings.Fields(l)
				if len(f) == 5 && f[0] == "cycle" {
					inTable = true
					continue
				}
				if !inTable || len(f) != 5 {
					continue
				}
				var v [5]uint64
				for i, s := range f {
					n, err := strconv.ParseUint(s, 10, 64)
					if err != nil {
						t.Fatalf("row %q: field %d is not a count (a negative live count fails here): %v", l, i, err)
					}
					v[i] = n
				}
				if rows > 0 && v[0] <= prev {
					t.Fatalf("row cycle %d does not follow %d", v[0], prev)
				}
				rows++
				prev, live = v[0], v[4]
				sum["commits"] += v[1]
				sum["aborts"] += v[2]
				sum["traffic"] += v[3]
			}
			if rows < 3 {
				t.Fatalf("only %d timeline rows:\n%s", rows, out.String())
			}
			for _, k := range []string{"commits", "aborts", "traffic"} {
				if sum[k] != total[k] {
					t.Errorf("rows sum to %s=%d, the summary says %d", k, sum[k], total[k])
				}
			}
			if live != 0 {
				t.Errorf("last row leaves %d attempts live", live)
			}
			if lastEvent < prev-width || lastEvent >= prev {
				t.Errorf("last row ends at cycle %d, but the last event is at cycle %d", prev, lastEvent)
			}
		})
	}
}
