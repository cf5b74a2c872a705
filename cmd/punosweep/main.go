// Command punosweep runs parameter sweeps around the PUNO design points:
// the P-Buffer validity timeout, the notification guard band, mesh size,
// and the contention-management scheme set, printing one table per sweep.
// The sweep's runs fan out across -parallel workers (default GOMAXPROCS);
// -parallel=1 restores the classic serial execution. Output is identical
// either way.
//
//	punosweep -sweep validity -workload labyrinth
//	punosweep -sweep guard    -workload bayes
//	punosweep -sweep mesh     -workload intruder
//	punosweep -sweep schemes  -workload yada -parallel 4
//	punosweep -sweep schemes  -workload yada -trace traces/
//
// With -trace DIR, every sweep point additionally writes its binary event
// trace (punotrace's .evt format) into DIR, one file per point, for
// point-vs-point diffing with `punotrace diff`. Tracing runs the points one
// at a time; the printed table is identical either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro"
	"repro/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// sweepPoint is one labelled run of a parameter sweep.
type sweepPoint struct {
	label string
	spec  puno.RunSpec
}

// points builds the labelled run list for one sweep mode.
func points(mode string, base puno.Config, wl *puno.Profile) ([]sweepPoint, string, error) {
	var pts []sweepPoint
	add := func(label string, cfg puno.Config) {
		pts = append(pts, sweepPoint{label, puno.RunSpec{Config: cfg, Workload: wl}})
	}
	switch mode {
	case "validity":
		for _, mult := range []int{1, 2, 4, 8, 16, 32, 64} {
			cfg := base
			cfg.Scheme = puno.SchemePUNO
			cfg.ValidityTimeoutMult = mult
			add(fmt.Sprintf("timeout %2dx avg-tx", mult), cfg)
		}
		cfg := base
		cfg.Scheme = puno.SchemePUNO
		cfg.DisableValidity = true
		add("no decay", cfg)
		return pts, fmt.Sprintf("P-Buffer validity timeout sweep on %s (scheme PUNO)", wl.Name()), nil

	case "guard":
		for _, g := range []puno.Time{1, 12, 23, 46, 92, 184, 368} {
			cfg := base
			cfg.Scheme = puno.SchemePUNO
			cfg.NotifyGuardOverride = g
			add(fmt.Sprintf("guard %3d cycles", g), cfg)
		}
		return pts, fmt.Sprintf("notification guard-band sweep on %s (scheme PUNO; paper: 2x avg cache-to-cache)", wl.Name()), nil

	case "mesh":
		for _, dim := range []struct{ w, h int }{{2, 2}, {4, 2}, {4, 4}, {8, 4}} {
			for _, s := range []puno.Scheme{puno.SchemeBaseline, puno.SchemePUNO} {
				cfg := base
				cfg.Scheme = s
				cfg.Mesh.Width, cfg.Mesh.Height = dim.w, dim.h
				cfg.Nodes = dim.w * dim.h
				add(fmt.Sprintf("%dx%d %v", dim.w, dim.h, s), cfg)
			}
		}
		return pts, fmt.Sprintf("machine-size sweep on %s (baseline vs PUNO)", wl.Name()), nil

	case "schemes":
		for _, s := range puno.AllSchemes() {
			cfg := base
			cfg.Scheme = s
			add(s.String(), cfg)
		}
		return pts, fmt.Sprintf("all schemes on %s", wl.Name()), nil

	default:
		return nil, "", fmt.Errorf("unknown sweep %q (validity|guard|mesh|schemes)", mode)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("punosweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sweep    = fs.String("sweep", "schemes", "validity|guard|mesh|schemes")
		workload = fs.String("workload", "intruder", "STAMP profile")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		txper    = fs.Int("txper", 0, "transactions per node (0 = profile default)")
		parallel = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		traceDir = fs.String("trace", "", "write each point's binary event trace (.evt) into this directory (forces serial execution)")
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
	runErr := runSweep(ctx, *sweep, *workload, *seed, *txper, *parallel, *traceDir, stdout)
	if perr := profiler.Stop(); runErr == nil {
		runErr = perr
	}
	return runErr
}

func runSweep(ctx context.Context, sweep, workload string, seed uint64, txper, parallel int, traceDir string, stdout io.Writer) error {
	wl, err := puno.WorkloadByName(workload)
	if err != nil {
		return err
	}
	if txper > 0 {
		wl = wl.WithTxPerCPU(txper)
	}
	base := puno.DefaultConfig()
	base.Seed = seed

	pts, title, err := points(sweep, base, wl)
	if err != nil {
		return err
	}
	var results []*puno.Result
	if traceDir != "" {
		// Tracing runs the points one at a time through CaptureEvents:
		// each point's trace needs its run's line table, and determinism
		// guarantees the results match the parallel path's.
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		results = make([]*puno.Result, len(pts))
		for i, p := range pts {
			if err := ctx.Err(); err != nil {
				return err
			}
			res, et, err := puno.CaptureEvents(p.spec.Config, p.spec.Workload)
			if err != nil {
				return fmt.Errorf("%s: %w", p.label, err)
			}
			results[i] = res
			path := filepath.Join(traceDir, fmt.Sprintf("%02d-%s.evt", i, sanitizeLabel(p.label)))
			if err := saveEvents(path, et); err != nil {
				return err
			}
		}
	} else {
		specs := make([]puno.RunSpec, len(pts))
		for i, p := range pts {
			specs[i] = p.spec
		}
		if results, err = puno.RunSpecs(ctx, specs, puno.SweepOptions{Parallel: parallel}); err != nil {
			return err
		}
	}

	fmt.Fprintln(stdout, title)
	for i, res := range results {
		fmt.Fprintf(stdout, "%-22s cycles=%-9d aborts=%-6d abort%%=%5.1f false%%=%4.1f unnecessary=%-5d traffic=%d\n",
			pts[i].label, res.Cycles, res.Aborts, 100*res.AbortRate(),
			100*res.FalseAbortFraction(), res.UnnecessaryAborts(), res.Net.TotalTraversals())
	}
	return nil
}

// sanitizeLabel turns a sweep-point label into a filename fragment.
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
