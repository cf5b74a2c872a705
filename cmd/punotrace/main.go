// Command punotrace captures event-level traces of whole runs and diffs
// them down to the first divergent event.
//
//	punotrace events -workload intruder -scheme puno -o puno.evt
//	punotrace diff   -a puno.evt -b baseline.evt
//	punotrace diff   -workload intruder -scheme-a baseline -scheme-b puno
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if strings.HasPrefix(err.Error(), "usage:") {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return usageError()
	}
	switch args[0] {
	case "events":
		return events(args[1:], stdout, stderr)
	case "diff":
		return diff(args[1:], stdout, stderr)
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: punotrace events|diff [flags]")
}

// capture runs one workload/scheme/seed combination with event recording.
func capture(workload string, scheme puno.Scheme, seed uint64, txper int) (*puno.Result, *puno.EventTrace, error) {
	wl, err := puno.WorkloadByName(workload)
	if err != nil {
		return nil, nil, err
	}
	if txper > 0 {
		wl = wl.WithTxPerCPU(txper)
	}
	cfg := puno.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Seed = seed
	return puno.CaptureEvents(cfg, wl)
}

func events(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "intruder", "STAMP profile to run")
	scheme := fs.String("scheme", "baseline", "contention-management scheme")
	seed := fs.Uint64("seed", 1, "simulation seed")
	txper := fs.Int("txper", 0, "transactions per node (0 = profile default)")
	out := fs.String("o", "", "output file (default <workload>-<scheme>.evt)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := puno.SchemeByName(*scheme)
	if err != nil {
		return err
	}
	res, et, err := capture(*workload, s, *seed, *txper)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.evt", *workload, strings.ToLower(s.String()))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := et.Save(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "captured %s/%v: %d events, %d lines, %d cycles -> %s\n",
		res.Workload, res.Scheme, len(et.Events), len(et.Lines), res.Cycles, path)
	return nil
}

func loadEvents(path string) (*puno.EventTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	et, err := puno.LoadEventTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return et, nil
}

// diff pinpoints the first divergent event between two runs: either two
// saved traces (-a/-b) or two schemes captured in-process (-scheme-a /
// -scheme-b on one workload+seed). Identical streams and divergences both
// exit 0 — the diagnosis is the output, not the exit code.
func diff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	aPath := fs.String("a", "", "first event-trace file")
	bPath := fs.String("b", "", "second event-trace file")
	workload := fs.String("workload", "", "capture mode: STAMP profile to run")
	schemeA := fs.String("scheme-a", "baseline", "capture mode: first scheme")
	schemeB := fs.String("scheme-b", "puno", "capture mode: second scheme")
	seed := fs.Uint64("seed", 1, "capture mode: simulation seed")
	txper := fs.Int("txper", 0, "capture mode: transactions per node")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var a, b *puno.EventTrace
	switch {
	case *aPath != "" && *bPath != "":
		var err error
		if a, err = loadEvents(*aPath); err != nil {
			return err
		}
		if b, err = loadEvents(*bPath); err != nil {
			return err
		}
	case *workload != "":
		sa, err := puno.SchemeByName(*schemeA)
		if err != nil {
			return err
		}
		sb, err := puno.SchemeByName(*schemeB)
		if err != nil {
			return err
		}
		if _, a, err = capture(*workload, sa, *seed, *txper); err != nil {
			return err
		}
		if _, b, err = capture(*workload, sb, *seed, *txper); err != nil {
			return err
		}
	default:
		return fmt.Errorf("diff: need either -a and -b, or -workload")
	}
	d, ok := puno.FirstDivergence(a, b)
	if !ok {
		fmt.Fprintf(stdout, "identical: %d events (A[%s] == B[%s])\n", len(a.Events), a.Scheme, b.Scheme)
		return nil
	}
	fmt.Fprintln(stdout, puno.FormatDivergence(a, b, d))
	return nil
}
