package puno

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out and the sweep-parallelism pair. The
// substrates (engine, mesh, L1, signatures, one full machine run) are timed
// by the repository benchmark's kernels instead: `bash bench/run.sh --trace 1`
// (bench/README.md). Each figure bench runs the relevant workload x scheme sweep
// at reduced scale (the full-scale numbers are produced by
// cmd/experiments) and reports the headline quantity of that figure as a
// custom metric, so `go test -bench . -benchmem` regenerates the whole
// evaluation in miniature.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

const benchScale = 0.2 // fraction of each profile's full transaction count

func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 12345
	return cfg
}

// benchSweep runs the given schemes over all eight workloads at reduced
// scale, once per benchmark iteration.
func benchSweep(b *testing.B, schemes []Scheme) *Sweep {
	b.Helper()
	var sweep *Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sweep, err = RunSweep(benchConfig(), ScaledWorkloads(benchScale), schemes)
		if err != nil {
			b.Fatal(err)
		}
	}
	return sweep
}

// benchNormalized sweeps schemes and reports, for each scheme of reported,
// the high-contention mean of metric normalized to baseline — the number
// the paper quotes for each figure.
func benchNormalized(b *testing.B, schemes, reported []Scheme, metric func(*Result) float64, unit string) {
	b.Helper()
	n, err := benchSweep(b, schemes).Normalized(metric)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range reported {
		b.ReportMetric(n.HighCont[s], unit+s.String())
	}
}

// BenchmarkTable1 regenerates Table I: baseline abort rates per workload.
func BenchmarkTable1(b *testing.B) {
	sweep := benchSweep(b, []Scheme{SchemeBaseline})
	for _, wl := range sweep.Workloads {
		r := sweep.Runs[wl.Name()][SchemeBaseline][0]
		b.ReportMetric(100*r.AbortRate(), "abort%/"+wl.Name())
	}
}

// BenchmarkTable2 renders the configuration table (no simulation).
func BenchmarkTable2(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(Table2(DefaultConfig()).String())
	}
	b.ReportMetric(float64(n), "chars")
}

// BenchmarkTable3 regenerates Table III: PUNO area/power overhead.
func BenchmarkTable3(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = Table3(16)
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
	// The paper's headline: 0.41% area, 0.31% power.
	b.ReportMetric(0.41, "paper-area-%")
	b.ReportMetric(0.31, "paper-power-%")
}

// BenchmarkFig2 regenerates Fig. 2: the fraction of transactional GETX
// accesses that incur false aborting under the baseline.
func BenchmarkFig2(b *testing.B) {
	sweep := benchSweep(b, []Scheme{SchemeBaseline})
	var hc float64
	var n int
	for _, wl := range sweep.Workloads {
		r := sweep.Runs[wl.Name()][SchemeBaseline][0]
		b.ReportMetric(100*r.FalseAbortFraction(), "false%/"+wl.Name())
		if wl.HighContention() {
			hc += 100 * r.FalseAbortFraction()
			n++
		}
	}
	b.ReportMetric(hc/float64(n), "false%/high-contention-mean")
}

// BenchmarkFig3 regenerates Fig. 3: the distribution of transactions
// aborted unnecessarily per false-aborting request.
func BenchmarkFig3(b *testing.B) {
	sweep := benchSweep(b, []Scheme{SchemeBaseline})
	var events, victims uint64
	maxMult := 0
	for _, wl := range sweep.Workloads {
		for k, c := range sweep.Runs[wl.Name()][SchemeBaseline][0].FalseAbortHist {
			if c == 0 {
				continue
			}
			events += c
			victims += uint64(k) * c
			if k > maxMult {
				maxMult = k
			}
		}
	}
	if events == 0 {
		b.Fatal("no false-aborting events at bench scale")
	}
	b.ReportMetric(float64(victims)/float64(events), "victims/event")
	b.ReportMetric(float64(maxMult), "max-victims")
}

// BenchmarkFig10 regenerates Fig. 10: normalized transaction aborts for
// the four schemes (high-contention mean; paper: PUNO 0.39).
func BenchmarkFig10(b *testing.B) {
	benchNormalized(b, Schemes(), Schemes(), fig10.Metric, "norm-aborts/")
}

// BenchmarkFig11 regenerates Fig. 11: normalized on-chip network traffic
// (paper: PUNO 0.67 in high contention).
func BenchmarkFig11(b *testing.B) {
	benchNormalized(b, Schemes(), Schemes(), fig11.Metric, "norm-traffic/")
}

// BenchmarkFig12 regenerates Fig. 12: normalized directory blocking while
// servicing transactional GETX (paper: PUNO 0.82). It reports the total
// blocked cycles, not fig12's per-service average.
func BenchmarkFig12(b *testing.B) {
	benchNormalized(b, Schemes(), Schemes(), func(r *Result) float64 { return float64(r.DirTxGETXBusy) }, "norm-dirblock/")
}

// BenchmarkFig13 regenerates Fig. 13: normalized execution time (paper:
// PUNO 0.88 in high contention).
func BenchmarkFig13(b *testing.B) {
	benchNormalized(b, Schemes(), Schemes(), fig13.Metric, "norm-time/")
}

// BenchmarkFig14 regenerates Fig. 14: the normalized good/discarded
// transaction cycle ratio (paper: PUNO 1.65x baseline).
func BenchmarkFig14(b *testing.B) {
	benchNormalized(b, Schemes(), Schemes(), fig14.Metric, "norm-gd/")
}

// ---- ablation benches (DESIGN.md) ---------------------------------------

// BenchmarkAblationPUNOParts separates PUNO's two mechanisms: predictive
// unicast alone, notification alone, and both.
func BenchmarkAblationPUNOParts(b *testing.B) {
	schemes := []Scheme{SchemeBaseline, SchemeUnicastOnly, SchemeNotifyOnly, SchemePUNO}
	benchNormalized(b, schemes, schemes[1:],
		func(r *Result) float64 { return float64(r.UnnecessaryAborts() + 1) }, "norm-unnecessary/")
}

// BenchmarkAblationValidity sweeps the P-Buffer validity timeout
// multiplier on labyrinth, the workload most sensitive to prediction
// staleness.
func BenchmarkAblationValidity(b *testing.B) {
	wl := MustWorkload("labyrinth").WithTxPerCPU(4)
	for _, mult := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("mult%d", mult), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Scheme = SchemePUNO
				cfg.ValidityTimeoutMult = mult
				var err error
				res, err = Run(cfg, wl)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.UnnecessaryAborts()), "unnecessary-aborts")
			b.ReportMetric(float64(res.Cycles), "cycles")
		})
	}
}

// BenchmarkAblationSignatures compares exact read/write sets against
// Bloom-filter signatures (LogTM-SE style) on intruder.
func BenchmarkAblationSignatures(b *testing.B) {
	wl := MustWorkload("intruder").WithTxPerCPU(15)
	for _, bits := range []int{0, 512, 2048} {
		name := "exact"
		if bits > 0 {
			name = fmt.Sprintf("sig%d", bits)
		}
		b.Run(name, func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.SignatureBits = bits
				var err error
				res, err = Run(cfg, wl)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Aborts), "aborts")
			b.ReportMetric(float64(res.Cycles), "cycles")
		})
	}
}

// BenchmarkAblationGuardBand sweeps the notification guard band (the
// paper uses twice the average cache-to-cache latency) on bayes.
func BenchmarkAblationGuardBand(b *testing.B) {
	wl := MustWorkload("bayes").WithTxPerCPU(6)
	for _, guard := range []Time{1, 23, 46, 184} {
		b.Run(fmt.Sprintf("guard%d", guard), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Scheme = SchemePUNO
				cfg.NotifyGuardOverride = guard
				var err error
				res, err = Run(cfg, wl)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(float64(res.Aborts), "aborts")
		})
	}
}

// ---- parallel runner ----------------------------------------------------

// BenchmarkSweepParallelism runs the same four-scheme high-contention
// sweep serially and fanned across the worker pool. The parallel/serial
// ns/op ratio is the experiment harness's speedup on this host (on a
// single-core machine the two are expected to tie; output stays
// bit-identical either way — see TestSerialParallelByteIdentical).
func BenchmarkSweepParallelism(b *testing.B) {
	workloads := []*Profile{
		MustWorkload("intruder").WithTxPerCPU(6),
		MustWorkload("kmeans").WithTxPerCPU(8),
	}
	schemes := Schemes()
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := RunEnsemble(context.Background(), benchConfig(), workloads, schemes,
					[]uint64{benchConfig().Seed}, SweepOptions{Parallel: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(workloads)*len(schemes)), "runs/op")
		})
	}

	// serial-traced is the serial sweep with an event sink installed on
	// every spec: the cost of leaving event tracing on. The serial variant
	// above runs with the sink nil, so comparing the two isolates the
	// tracing overhead; the tracing-off cost of the hooks themselves is
	// one nil check per emit site.
	b.Run("serial-traced", func(b *testing.B) {
		var specs []RunSpec
		var sinks []*EventBuffer
		for _, wl := range workloads {
			for _, sch := range schemes {
				cfg := benchConfig()
				cfg.Scheme = sch
				buf := &EventBuffer{}
				cfg.EventSink = buf
				specs = append(specs, RunSpec{Config: cfg, Workload: wl})
				sinks = append(sinks, buf)
			}
		}
		events := 0
		for i := 0; i < b.N; i++ {
			for _, s := range sinks {
				s.Reset()
			}
			if _, err := RunSpecs(context.Background(), specs, SweepOptions{Parallel: 1}); err != nil {
				b.Fatal(err)
			}
			events = 0
			for _, s := range sinks {
				events += s.Len()
			}
		}
		b.ReportMetric(float64(len(specs)), "runs/op")
		b.ReportMetric(float64(events), "events/op")
	})
}
