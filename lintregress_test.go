package puno

// Regression tests for the invariant punovet's maprange analyzer mechanizes:
// no iteration order inside the directory, the TxLB, or the RMW predictor
// may leak into a Result or a rendered dump. Each test perturbs map layout
// a different way — fresh machines get fresh map hash seeds, and an
// arena-reused machine carries maps whose internal layout (bucket order,
// tombstones) reflects the previous run — and demands byte-identical
// output either way.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestSweepDumpStableAcrossRepetition runs the same sweep twice in one
// process and requires the full rendered dump — every table and CSV the
// figure drivers produce — to match byte for byte. Every map in the second
// sweep is a new object with a new hash seed, so a map-order dependence
// anywhere between the simulator and the report layer shows up as a diff.
func TestSweepDumpStableAcrossRepetition(t *testing.T) {
	wls := []*Profile{MustWorkload("intruder").WithTxPerCPU(4)}
	schemes := []Scheme{SchemeBaseline, SchemePUNO}

	first, err := RunSweep(detConfig(), wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunSweep(detConfig(), wls, schemes)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderAll(t, first), renderAll(t, second)
	if a != b {
		t.Fatalf("repeating the sweep changed the rendered dump:\n--- first ---\n%s--- second ---\n%s", a, b)
	}
}

// TestResetReuseMatchesFreshDump drives the arena path the sweep workers
// use: one machine runs the PUNO scheme (directory, TxLB, and RMW
// predictor all live), is Reset, and runs the same spec again. Both the
// full Result structs and a rendered dump built from them must be
// identical to a fresh machine's. A reused machine's maps differ from a
// fresh machine's in hash seed and in internal layout left behind by the
// previous run, so any order leak in eviction scans, GlobalAverage, or
// directory reset shows up here.
func TestResetReuseMatchesFreshDump(t *testing.T) {
	cfg := detConfig()
	cfg.Scheme = SchemePUNO
	wl := MustWorkload("kmeans").WithTxPerCPU(5)

	fresh, err := NewMachine(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantClone := want.Clone()

	arena, err := NewMachine(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arena.Run(); err != nil {
		t.Fatal(err)
	}
	// Dirty the arena with a different scheme and workload so the reused
	// maps carry layout from a genuinely different run, then come back.
	dirty := detConfig()
	dirty.Scheme = SchemeBackoff
	if err := arena.Reset(dirty, MustWorkload("intruder").WithTxPerCPU(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := arena.Run(); err != nil {
		t.Fatal(err)
	}
	if err := arena.Reset(cfg, wl); err != nil {
		t.Fatal(err)
	}
	got, err := arena.Run()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got.Clone(), wantClone) {
		t.Fatalf("arena-reused Result diverged from fresh machine:\n got: %+v\nwant: %+v", got, wantClone)
	}
	// The derived metrics feeding the figure tables must agree too — these
	// are the paths that walk FalseAbortHist and friends.
	type derived struct {
		abortRate float64
		falseFrac float64
		gd        float64
		dirBlock  float64
		unnec     uint64
	}
	d1 := derived{want.AbortRate(), want.FalseAbortFraction(), want.GDRatio(), want.DirBlockingPerTxGETX(), want.UnnecessaryAborts()}
	d2 := derived{got.AbortRate(), got.FalseAbortFraction(), got.GDRatio(), got.DirBlockingPerTxGETX(), got.UnnecessaryAborts()}
	if d1 != d2 {
		t.Fatalf("derived metrics diverged between fresh and reused machine:\nfresh:  %+v\nreused: %+v", d1, d2)
	}
}

// TestRepeatedRunsShareNoOrderState runs one PUNO config several times on
// fresh machines and requires every repetition's UnnecessaryAborts — the
// one metric computed by walking the FalseAbortHist map — to agree, so a
// reintroduced unordered walk that happens to sum correctly by commutivity
// is still pinned by the stronger full-Result equality above.
func TestRepeatedRunsShareNoOrderState(t *testing.T) {
	cfg := detConfig()
	cfg.Scheme = SchemePUNO
	wl := MustWorkload("intruder").WithTxPerCPU(4)
	var base *Result
	for i := 0; i < 3; i++ {
		r, err := Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = r
			continue
		}
		if !reflect.DeepEqual(r, base) {
			t.Fatalf("repetition %d produced a different Result", i)
		}
	}
	if base.Commits == 0 {
		t.Fatal("workload committed nothing; the equality above is vacuous")
	}
	// Sanity: the run aborted at least once, so FalseAbortHist and the
	// predictor tables were actually populated and walked.
	if base.Aborts == 0 {
		t.Fatal("workload never aborted; the order-leak check is vacuous")
	}
}

// TestHotallocFlagsVariadicTraceBoxing pins the gap that once let a node
// debug-trace helper box its arguments on every read, write, forward and
// response while DESIGN.md called the hot path zero-allocation: the node FSM
// carried no //puno:hot, so neither hot-path check looked. The escapegate
// fixture carries that shape — a variadic ...any helper called with a uint64
// from hotVariadicTrace — and the escape gate must flag it there exactly
// once; hotTypedTrace, the guarded typed helper, must not be flagged.
func TestHotallocFlagsVariadicTraceBoxing(t *testing.T) {
	findings, err := lint.RunEscape(".", []string{"./internal/lint/testdata/src/escapegate"})
	if err != nil {
		t.Fatal(err)
	}
	var variadic int
	for _, f := range findings {
		switch {
		case strings.Contains(f.Message, "hot function hotVariadicTrace"):
			variadic++
			if !strings.Contains(f.Message, "escapes to heap") {
				t.Errorf("the escape gate flagged the wrong thing: %s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Message)
			}
		case strings.Contains(f.Message, "hot function hotTypedTrace"):
			t.Errorf("the guarded typed trace helper was flagged: %s:%d: %s", f.Pos.Filename, f.Pos.Line, f.Message)
		}
	}
	if variadic != 1 {
		t.Fatalf("the escape gate reported %d findings in hotVariadicTrace, want exactly 1: %v", variadic, findings)
	}
}
