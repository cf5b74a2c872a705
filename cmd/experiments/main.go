// Command experiments regenerates the paper's tables and figures. With no
// flags it runs the complete evaluation (all eight workloads, all four
// schemes) and prints every table; -exp selects one experiment, -csv emits
// machine-readable output, and -scale shrinks or grows the workloads. Runs
// fan out across -parallel workers (default GOMAXPROCS; -parallel=1 is the
// classic serial mode). -seeds takes one seed or several: with several,
// every run is repeated per seed, Table I and Figs. 2–3 aggregate over the
// seeds, and the normalized figures and the summary report mean±stddev.
//
// Usage:
//
//	experiments                    # everything (~1 s)
//	experiments -exp fig10         # one figure
//	experiments -exp table3        # no simulation needed
//	experiments -scale 0.25        # quarter-size workloads for a quick look
//	experiments -seeds 1,2,3,4,5   # 5-seed ensemble with confidence intervals
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
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

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: table1|table2|table3|fig2|fig3|fig10|fig11|fig12|fig13|fig14|summary|all")
		seedList = fs.String("seeds", "12345", "comma-separated simulation seeds; more than one reports mean±stddev figures")
		scale    = fs.Float64("scale", 1.0, "workload size multiplier")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (samples carry per-run pprof labels: task index and workload/scheme/seed)")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
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
	runErr := runExperiments(ctx, *exp, *seedList, *scale, *csv, *parallel, stdout, stderr)
	if perr := profiler.Stop(); runErr == nil {
		runErr = perr
	}
	return runErr
}

func runExperiments(ctx context.Context, exp, seedList string, scale float64, csv bool, parallel int, stdout, stderr io.Writer) error {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	cfg := puno.DefaultConfig()
	want := strings.ToLower(exp)

	// Table II and Table III need no simulation.
	if want == "table2" {
		printTable(stdout, puno.Table2(cfg), csv)
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
		len(puno.Workloads()), len(schemes), len(seeds), scale)
	sweep, err := puno.RunEnsemble(ctx, cfg, puno.ScaledWorkloads(scale), schemes, seeds,
		puno.SweepOptions{Parallel: parallel})
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
			printTable(stdout, t, csv)
			fmt.Fprintln(stdout)
		}
		if it.name == "table1" && want == "all" {
			printTable(stdout, puno.Table2(cfg), csv)
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
