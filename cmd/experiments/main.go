// Command experiments regenerates the paper's tables and figures and runs
// the design-choice ablations. With no flags it runs the complete evaluation
// (all eight workloads, all four schemes) and prints every table; -exp
// selects one experiment or one ablation, -csv emits machine-readable
// output, and -scale shrinks or grows the workloads. Runs fan out across
// -parallel workers (default GOMAXPROCS; -parallel=1 is the classic serial
// mode). -seeds takes one seed or several: with several, every run is
// repeated per seed, Table I and Figs. 2–3 aggregate over the seeds, and the
// normalized figures, the summary and the ablations report mean±stddev.
//
// An ablation (-exp validity|guard|mesh|schemes|signatures, puno.Ablations)
// runs its points on its own workload unless -workload names another, and
// prints one table. With -trace DIR every point additionally writes its
// binary event trace (punotrace's .evt format), one file per point and
// seed, for point-vs-point diffing with `punotrace diff`; tracing runs the
// points one at a time and prints the same table.
//
// Usage:
//
//	experiments                    # everything (~1 s)
//	experiments -exp fig10         # one figure
//	experiments -exp table3        # no simulation needed
//	experiments -scale 0.25        # quarter-size workloads for a quick look
//	experiments -seeds 1,2,3,4,5   # 5-seed ensemble with confidence intervals
//	experiments -exp validity -seeds 1,2,3
//	experiments -exp schemes -workload yada -trace traces/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseSeeds turns a comma-separated seed list into values.
func parseSeeds(s string) ([]uint64, error) {
	var seeds []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", part, err)
		}
		seeds = append(seeds, v)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("empty seed list %q", s)
	}
	return seeds, nil
}

// options are the command's flags.
type options struct {
	exp, seeds, workload, traceDir string
	scale                          float64
	csv                            bool
	parallel                       int
}

// paperExperiments lists the -exp values that read the paper's run matrix.
func paperExperiments() []string {
	names := []string{"table1", "table2", "table3", "fig2", "fig3"}
	for _, f := range puno.Figures() {
		names = append(names, f.Name)
	}
	return append(names, "summary", "all")
}

// experimentNames lists every -exp value: the paper's, then the ablations.
func experimentNames() []string {
	names := paperExperiments()
	for _, a := range puno.Ablations() {
		names = append(names, a.Name)
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.exp, "exp", "all", "experiment: "+strings.Join(experimentNames(), "|"))
	fs.StringVar(&o.seeds, "seeds", "12345", "comma-separated simulation seeds; more than one reports mean±stddev cells")
	fs.Float64Var(&o.scale, "scale", 1.0, "workload size multiplier")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&o.parallel, "parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&o.workload, "workload", "", "ablations only: run on this STAMP profile instead of the ablation's own")
	fs.StringVar(&o.traceDir, "trace", "", "ablations only: write each point's binary event trace (.evt), one per point and seed, into this directory (runs serially)")
	var (
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file (samples carry per-run pprof labels: task index and workload/scheme/seed)")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// An interrupt cancels the sweep; the deferred Stop still flushes the
	// profiles collected so far.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	profiler, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer profiler.Stop()
	runErr := runExperiments(ctx, o, stdout, stderr)
	if perr := profiler.Stop(); runErr == nil {
		runErr = perr
	}
	return runErr
}

func runExperiments(ctx context.Context, o options, stdout, stderr io.Writer) error {
	seeds, err := parseSeeds(o.seeds)
	if err != nil {
		return err
	}
	want := strings.ToLower(o.exp)
	for _, a := range puno.Ablations() {
		if a.Name == want {
			return runAblation(ctx, a, seeds, o, stdout, stderr)
		}
	}
	if !slices.Contains(paperExperiments(), want) {
		return fmt.Errorf("unknown -exp %q (valid: %s)", o.exp, strings.Join(experimentNames(), ", "))
	}
	if o.workload != "" || o.traceDir != "" {
		return fmt.Errorf("-workload and -trace apply only to the ablations, not to -exp %s", o.exp)
	}
	cfg := puno.DefaultConfig()

	// Table II and Table III need no simulation.
	if want == "table2" {
		printTable(stdout, puno.Table2(cfg), o.csv)
		return nil
	}
	if want == "table3" {
		fmt.Fprint(stdout, puno.Table3(cfg.Nodes))
		return nil
	}

	// Table I and Figs. 2-3 read only the baseline runs.
	schemes := puno.Schemes()
	if want == "table1" || want == "fig2" || want == "fig3" {
		schemes = []puno.Scheme{puno.SchemeBaseline}
	}

	start := time.Now()
	fmt.Fprintf(stderr, "running %d workloads x %d schemes x %d seeds (scale %.2f)...\n",
		len(puno.Workloads()), len(schemes), len(seeds), o.scale)
	sweep, err := puno.RunEnsemble(ctx, cfg, puno.ScaledWorkloads(o.scale), schemes, seeds,
		puno.SweepOptions{Parallel: o.parallel})
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sweep done in %v\n", time.Since(start).Round(time.Millisecond))

	type item struct {
		name   string
		render func() (*puno.Table, error)
	}
	items := []item{{"table1", sweep.Table1}, {"fig2", sweep.Fig2}}
	for _, f := range puno.Figures() {
		items = append(items, item{f.Name, func() (*puno.Table, error) { return sweep.Figure(f) }})
	}
	for _, it := range items {
		if want == "all" || want == it.name {
			t, err := it.render()
			if err != nil {
				return err
			}
			printTable(stdout, t, o.csv)
			fmt.Fprintln(stdout)
		}
		if it.name == "table1" && want == "all" {
			printTable(stdout, puno.Table2(cfg), o.csv)
			fmt.Fprintln(stdout)
		}
		if it.name == "fig2" && (want == "all" || want == "fig3") {
			f3, err := sweep.Fig3All()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, f3)
		}
	}
	if want == "all" {
		fmt.Fprint(stdout, puno.Table3(cfg.Nodes))
		fmt.Fprintln(stdout)
	}
	if want == "all" || want == "summary" {
		st, err := sweep.Summary()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== Headline summary (PUNO vs baseline; negative = reduction) ==\n")
		fmt.Fprintf(stdout, "high-contention: aborts %+.0f%%  traffic %+.0f%%  exec time %+.0f%%\n",
			-100*st.AbortReductionHC, -100*st.TrafficReductionHC, -100*st.SpeedupHC)
		fmt.Fprintf(stdout, "all workloads:   aborts %+.0f%%  traffic %+.0f%%  exec time %+.0f%%\n",
			-100*st.AbortReductionAll, -100*st.TrafficReductionAll, -100*st.SpeedupAll)
		fmt.Fprintf(stdout, "(paper: high-contention aborts -61%%, traffic -32%%, exec time -12%%)\n")
	}
	return nil
}

func printTable(w io.Writer, t *puno.Table, csv bool) {
	if csv {
		fmt.Fprint(w, t.CSV())
		return
	}
	fmt.Fprint(w, t.String())
}

// runAblation runs every point of a at every seed and prints its table.
func runAblation(ctx context.Context, a puno.Ablation, seeds []uint64, o options, stdout, stderr io.Writer) error {
	name := a.Workload
	if o.workload != "" {
		name = o.workload
	}
	wl, err := puno.WorkloadByName(name)
	if err != nil {
		return err
	}
	wl = puno.ScaleWorkload(wl, o.scale)
	specs := a.Specs(puno.DefaultConfig(), wl, seeds)

	start := time.Now()
	fmt.Fprintf(stderr, "running ablation %s: %d points x %d seeds on %s (scale %.2f)...\n",
		a.Name, len(a.Points), len(seeds), wl.Name(), o.scale)
	var results []*puno.Result
	if o.traceDir != "" {
		results, err = captureSpecs(ctx, a, specs, len(seeds), o.traceDir)
	} else {
		results, err = puno.RunSpecs(ctx, specs, puno.SweepOptions{Parallel: o.parallel})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "sweep done in %v\n", time.Since(start).Round(time.Millisecond))
	printTable(stdout, a.Table(wl, results), o.csv)
	return nil
}

// captureSpecs runs an ablation's specs one at a time through CaptureEvents
// and saves each run's event trace into dir as NN-<label>-seedS.evt: a trace
// needs its run's line table, and determinism makes the results match the
// pooled path's.
func captureSpecs(ctx context.Context, a puno.Ablation, specs []puno.RunSpec, seeds int, dir string) ([]*puno.Result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	results := make([]*puno.Result, len(specs))
	for i, sp := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		label := a.Points[i/seeds].Label
		res, et, err := puno.CaptureEvents(sp.Config, sp.Workload)
		if err != nil {
			return nil, fmt.Errorf("%s (seed %d): %w", label, sp.Config.Seed, err)
		}
		results[i] = res
		path := filepath.Join(dir, fmt.Sprintf("%02d-%s-seed%d.evt", i/seeds, sanitizeLabel(label), sp.Config.Seed))
		if err := saveEvents(path, et); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// sanitizeLabel turns an ablation-point label into a filename fragment.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, label)
}

func saveEvents(path string, et *puno.EventTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := et.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
