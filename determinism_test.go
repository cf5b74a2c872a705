package puno

// The determinism harness: the package-level guarantee is that a run is a
// pure function of (Config, Workload) — bit-identical across repetitions
// and across serial/parallel execution — and these tests are what certify
// it. Golden files under testdata/ additionally pin the rendered output so
// an accidental change to either the simulation or the report layer shows
// up as a diff; refresh them with `go test -run Golden -update` after an
// intentional change.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
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
// normalizes against: the set the serial/parallel and sharded comparisons
// run (ATS's machine-wide token cannot be sharded).
func detSchemes() []Scheme { return []Scheme{SchemeBaseline, SchemeBackoff, SchemePUNO} }

func detConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 42
	return cfg
}

// detSweep runs detWorkloads x detSchemes at cfg.Seed under opts.
func detSweep(ctx context.Context, cfg Config, opts SweepOptions) (*Sweep, error) {
	return RunEnsemble(ctx, cfg, detWorkloads(), detSchemes(), []uint64{cfg.Seed}, opts)
}

// renderAll flattens a sweep's full rendered output into one string, so a
// single byte comparison covers every table the figure drivers produce.
func renderAll(t *testing.T, s *Sweep) string {
	t.Helper()
	var b strings.Builder
	renders := []func() (*Table, error){s.Table1, s.Fig2}
	for _, f := range Figures() {
		renders = append(renders, func() (*Table, error) { return s.Figure(f) })
	}
	for _, render := range renders {
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
	serial, err := detSweep(ctx, detConfig(), SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := detSweep(ctx, detConfig(), SweepOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}

	for _, wl := range detWorkloads() {
		for _, sch := range detSchemes() {
			a := serial.Runs[wl.Name()][sch][0]
			b := parallel.Runs[wl.Name()][sch][0]
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

	nA, err := a.Normalized(fig13.Metric)
	if err != nil {
		t.Fatal(err)
	}
	nB, err := b.Normalized(fig13.Metric)
	if err != nil {
		t.Fatal(err)
	}
	stA, stB := nA.Cells["kmeans"][SchemePUNO], nB.Cells["kmeans"][SchemePUNO]
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

	// Every cell of the matrix is the run a one-seed sweep at that seed makes.
	for i, seed := range seeds {
		cfg := detConfig()
		cfg.Seed = seed
		one, err := RunSweep(cfg, wls, schemes)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range schemes {
			want, err := EncodeResult(one.Runs["kmeans"][sch][0])
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeResult(a.Runs["kmeans"][sch][i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("kmeans/%v seed %d: ensemble cell differs from the one-seed sweep's run", sch, seed)
			}
		}
	}
}

// TestGoldenSweepOutput pins the rendered sweep output of every scheme
// byte-for-byte in testdata/sweep_golden.txt.
func TestGoldenSweepOutput(t *testing.T) {
	cfg := detConfig()
	sweep, err := RunEnsemble(context.Background(), cfg, detWorkloads(), AllSchemes(),
		[]uint64{cfg.Seed}, SweepOptions{Parallel: 4})
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
	tbl, err := ens.Figure(Figure{Title: "normalized execution time", Metric: fig13.Metric})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "ensemble_golden.txt", tbl.String())
}

// TestGoldenTraceText pins the rendered event stream — every event, in
// order, through trace.FormatEvent, the renderer `punosim -trace` prints
// with — for one short 4-node labyrinth/PUNO run, in
// testdata/trace_text.golden. The sweep goldens never render an event, so
// without this a dropped, reordered or reformatted event line would go
// unnoticed.
func TestGoldenTraceText(t *testing.T) {
	cfg := detConfig()
	cfg.Scheme = SchemePUNO
	cfg.Nodes, cfg.Mesh.Width, cfg.Mesh.Height = 4, 2, 2
	_, tr, err := CaptureEvents(cfg, MustWorkload("labyrinth").WithTxPerCPU(1))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range tr.Events {
		b.WriteString(trace.FormatEvent(tr.LineOf(e.Line), e))
		b.WriteByte('\n')
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
