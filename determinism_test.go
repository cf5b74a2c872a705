package puno

// The determinism harness: the package-level guarantee is that a run is a
// pure function of (Config, Workload) — bit-identical across repetitions
// and across serial/parallel execution — and these tests are what certify
// it. Golden files under testdata/ additionally pin the rendered output so
// an accidental change to either the simulation or the report layer shows
// up as a diff; refresh them with `go test -run Golden -update` after an
// intentional change.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// detWorkloads is the two-workload set used throughout: one RMW-heavy
// low-contention profile and one high-contention profile.
func detWorkloads() []*Profile {
	return []*Profile{
		MustWorkload("kmeans").WithTxPerCPU(6),
		MustWorkload("intruder").WithTxPerCPU(4),
	}
}

// detSchemes is three schemes including the baseline every figure
// normalizes against.
func detSchemes() []Scheme { return []Scheme{SchemeBaseline, SchemeBackoff, SchemePUNO} }

func detConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 42
	return cfg
}

// renderAll flattens a sweep's full rendered output into one string, so a
// single byte comparison covers every table the figure drivers produce.
func renderAll(t *testing.T, s *Sweep) string {
	t.Helper()
	var b strings.Builder
	for _, render := range []func() (*Table, error){
		s.Table1, s.Fig2, s.Fig10, s.Fig11, s.Fig12, s.Fig13, s.Fig14,
	} {
		tbl, err := render()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tbl.String())
		b.WriteString(tbl.CSV())
		b.WriteByte('\n')
	}
	fig3, err := s.Fig3All()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(fig3)
	return b.String()
}

// TestRunTwiceBitIdentical runs the same Config+Profile twice and asserts
// the full Result structs are identical, field for field.
func TestRunTwiceBitIdentical(t *testing.T) {
	cfg := detConfig()
	cfg.Scheme = SchemePUNO
	wl := MustWorkload("intruder").WithTxPerCPU(5)
	a, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same Config+Profile produced different Results:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestSerialParallelByteIdentical is the guard on the parallel runner: the
// sweep fanned across 8 workers must produce exactly the Results and
// rendered tables the serial loop produces, for two workloads x three
// schemes.
func TestSerialParallelByteIdentical(t *testing.T) {
	ctx := context.Background()
	serial, err := RunSweepCtx(ctx, detConfig(), detWorkloads(), detSchemes(), SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweepCtx(ctx, detConfig(), detWorkloads(), detSchemes(), SweepOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}

	for _, wl := range detWorkloads() {
		for _, sch := range detSchemes() {
			a := serial.Results[wl.Name()][sch]
			b := parallel.Results[wl.Name()][sch]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%v: serial and parallel Results differ:\nserial:   %+v\nparallel: %+v",
					wl.Name(), sch, a, b)
			}
		}
	}

	sOut, pOut := renderAll(t, serial), renderAll(t, parallel)
	if sOut != pOut {
		t.Fatalf("rendered output differs between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s",
			sOut, pOut)
	}
}

// TestEnsembleDeterministicAcrossParallelism repeats the guarantee for the
// multi-seed ensemble path.
func TestEnsembleDeterministicAcrossParallelism(t *testing.T) {
	ctx := context.Background()
	seeds := []uint64{1, 2, 3}
	wls := []*Profile{MustWorkload("kmeans").WithTxPerCPU(4)}
	schemes := []Scheme{SchemeBaseline, SchemePUNO}

	a, err := RunEnsemble(ctx, detConfig(), wls, schemes, seeds, SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsemble(ctx, detConfig(), wls, schemes, seeds, SweepOptions{Parallel: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatal("ensemble Results differ between serial and parallel execution")
	}

	stA, err := a.NormalizedMetric("kmeans", SchemePUNO, func(r *Result) float64 { return float64(r.Cycles) })
	if err != nil {
		t.Fatal(err)
	}
	stB, err := b.NormalizedMetric("kmeans", SchemePUNO, func(r *Result) float64 { return float64(r.Cycles) })
	if err != nil {
		t.Fatal(err)
	}
	if stA != stB {
		t.Fatalf("ensemble stats differ: %v vs %v", stA, stB)
	}
	if stA.N != len(seeds) {
		t.Fatalf("stat over %d seeds, want %d", stA.N, len(seeds))
	}
	// Different seeds genuinely differ (otherwise the stddev is vacuous).
	runs := a.Runs["kmeans"][SchemePUNO]
	if runs[0].Cycles == runs[1].Cycles && runs[1].Cycles == runs[2].Cycles {
		t.Error("all seeds produced identical cycle counts; seed plumbing suspect")
	}
}

// TestGoldenSweepOutput pins the rendered sweep output byte-for-byte in
// testdata/sweep_golden.txt.
func TestGoldenSweepOutput(t *testing.T) {
	sweep, err := RunSweepCtx(context.Background(), detConfig(), detWorkloads(), detSchemes(),
		SweepOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "sweep_golden.txt", renderAll(t, sweep))
}

// TestGoldenEnsembleOutput pins the ensemble mean±stddev table in
// testdata/ensemble_golden.txt.
func TestGoldenEnsembleOutput(t *testing.T) {
	ens, err := RunEnsemble(context.Background(), detConfig(),
		[]*Profile{MustWorkload("kmeans").WithTxPerCPU(4)},
		[]Scheme{SchemeBaseline, SchemePUNO}, []uint64{1, 2, 3}, SweepOptions{Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := ens.MetricTable("normalized execution time", func(r *Result) float64 { return float64(r.Cycles) })
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "ensemble_golden.txt", tbl.String())
}

// TestGoldenTraceText pins the text a Config.TraceFn receives — every line,
// in order, with its cycle and node — for one short 4-node labyrinth/PUNO
// run, in testdata/trace_text.golden. The sweep goldens never install a
// TraceFn, so without this a dropped, reordered or reformatted trace line
// (what `punosim -trace` prints) would go unnoticed.
func TestGoldenTraceText(t *testing.T) {
	cfg := detConfig()
	cfg.Scheme = SchemePUNO
	cfg.Nodes, cfg.Mesh.Width, cfg.Mesh.Height = 4, 2, 2
	var b strings.Builder
	cfg.TraceFn = func(cy Time, node int, ev string) {
		fmt.Fprintf(&b, "%10d n%02d %s\n", cy, node, ev)
	}
	if _, err := Run(cfg, MustWorkload("labyrinth").WithTxPerCPU(1)); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "trace_text.golden", b.String())
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run `go test -run Golden -update` to create it): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (run with -update after an intentional change):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
