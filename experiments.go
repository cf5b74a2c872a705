package puno

import (
	"context"
	"fmt"

	"repro/internal/area"
	"repro/internal/machine"
	"repro/internal/pdes"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stamp"
)

// Table is an ASCII/CSV-renderable result table.
type Table = report.Table

// Sweep holds the results of running a set of workloads under a set of
// schemes — the input to every figure driver.
type Sweep struct {
	Workloads []*Profile
	Schemes   []Scheme
	// Results[workload name][scheme]
	Results map[string]map[Scheme]*Result
}

// SweepOptions controls how a run matrix is executed.
type SweepOptions struct {
	// Parallel is the number of simulations run concurrently. Zero picks
	// GOMAXPROCS; one forces the classic serial loop. Every run owns its
	// engine and machine, so parallel and serial execution produce
	// bit-identical results.
	Parallel int
	// Progress, when non-nil, is called after each run completes with the
	// number of finished runs and the total (possibly from a pool
	// goroutine; calls are serialized).
	Progress func(done, total int)
}

// RunSpec names one simulation: a fully resolved Config (scheme and seed
// included) and the workload to run under it.
type RunSpec struct {
	Config   Config
	Workload Workload
}

// Arena is one worker's reusable simulation machine: the first run builds
// it, later runs Reset it in place, so a long sweep pays machine
// construction (caches, directory pools, event-queue slabs) once per worker
// instead of once per sweep point. A run on a warm arena still allocates the
// per-node objects Machine.Reset documents as rebuilt (programs, RNGs,
// contention managers) and the Result copy Run returns — a constant per
// node count — and nothing per event or per transaction. Serial and sharded
// (PDES) runs keep separate arenas, since a caller may mix shardable and
// fallback specs.
// Results are identical to fresh construction — Machine.Reset and New share
// one code path. An Arena is not safe for concurrent use; long-lived pools
// (punoserve) keep one per worker goroutine, exactly as RunSpecs does.
type Arena struct {
	m  *Machine
	co *pdes.Coordinator
}

// NewArena returns an empty arena; the first Run populates it.
func NewArena() *Arena { return &Arena{} }

// Run executes one spec on the arena and returns a deep copy of the
// result (the machine's internal Result is reused by the next run).
func (a *Arena) Run(sp RunSpec) (*Result, error) {
	var err error
	if pdes.Eligible(sp.Config, sp.Workload) {
		if a.co == nil {
			a.co, err = pdes.New(sp.Config, sp.Workload)
		} else {
			err = a.co.Reset(sp.Config, sp.Workload)
		}
		if err != nil {
			return nil, err
		}
		res, err := a.co.Run()
		if err != nil {
			return nil, err
		}
		return res.Clone(), nil
	}
	if a.m == nil {
		a.m, err = machine.New(sp.Config, sp.Workload)
	} else {
		err = a.m.Reset(sp.Config, sp.Workload)
	}
	if err != nil {
		return nil, err
	}
	res, err := a.m.Run()
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// RunSpecs executes the given runs, fanning them across a worker pool per
// opts, and returns the results in spec order. Each worker reuses one
// machine arena across its runs (results are identical to fresh
// construction — Machine.Reset and New share one code path — and
// independent of how specs land on workers). Each failure is wrapped with
// its workload, scheme, and seed, and all failures are collected (not just
// the first). Cancelling ctx abandons not-yet-started runs. Tasks carry
// pprof labels (task index and workload/scheme/seed), so CPU profiles
// taken over a sweep attribute samples per sweep point.
func RunSpecs(ctx context.Context, specs []RunSpec, opts SweepOptions) ([]*Result, error) {
	// A sharded spec occupies Config.Shards goroutines while it runs, so
	// tell the pool the widest task footprint and let it shrink the
	// auto-selected worker count to keep total concurrency near GOMAXPROCS.
	threads := 1
	for _, sp := range specs {
		if pdes.Eligible(sp.Config, sp.Workload) && sp.Config.Shards > threads {
			threads = sp.Config.Shards
		}
	}
	ropts := runner.Options{
		Workers:     opts.Parallel,
		TaskThreads: threads,
		Progress:    opts.Progress,
		Label: func(i int) string {
			sp := specs[i]
			return fmt.Sprintf("%s/%v/seed%d", sp.Workload.Name(), sp.Config.Scheme, sp.Config.Seed)
		},
	}
	return runner.MapWorkers(ctx, len(specs), ropts,
		func(int) *Arena { return NewArena() },
		func(_ context.Context, i int, a *Arena) (*Result, error) {
			sp := specs[i]
			res, err := a.Run(sp)
			if err != nil {
				return nil, fmt.Errorf("%s/%v (seed %d): %w",
					sp.Workload.Name(), sp.Config.Scheme, sp.Config.Seed, err)
			}
			return res, nil
		})
}

// RunSweep executes every workload under every scheme, starting from base
// (whose Scheme field is overridden per run), in parallel across
// GOMAXPROCS workers. Runs are deterministic in base.Seed regardless of
// parallelism. Use RunSweepCtx for cancellation, progress reporting, or an
// explicit worker count.
func RunSweep(base Config, workloads []*Profile, schemes []Scheme) (*Sweep, error) {
	return RunSweepCtx(context.Background(), base, workloads, schemes, SweepOptions{})
}

// RunSweepCtx is RunSweep with cancellation and execution options.
func RunSweepCtx(ctx context.Context, base Config, workloads []*Profile, schemes []Scheme, opts SweepOptions) (*Sweep, error) {
	specs := make([]RunSpec, 0, len(workloads)*len(schemes))
	for _, wl := range workloads {
		for _, sch := range schemes {
			cfg := base
			cfg.Scheme = sch
			specs = append(specs, RunSpec{Config: cfg, Workload: wl})
		}
	}
	results, err := RunSpecs(ctx, specs, opts)
	if err != nil {
		return nil, err
	}
	s := &Sweep{
		Workloads: workloads,
		Schemes:   schemes,
		Results:   make(map[string]map[Scheme]*Result),
	}
	i := 0
	for _, wl := range workloads {
		s.Results[wl.Name()] = make(map[Scheme]*Result, len(schemes))
		for _, sch := range schemes {
			s.Results[wl.Name()][sch] = results[i]
			i++
		}
	}
	return s, nil
}

// Baseline fetches a workload's baseline result (every figure normalizes
// against it). It returns a descriptive error when SchemeBaseline was not
// part of the sweep's scheme set or the workload is unknown.
func (s *Sweep) Baseline(wl string) (*Result, error) {
	r, ok := s.Results[wl][SchemeBaseline]
	if !ok || r == nil {
		return nil, fmt.Errorf("sweep has no %v result for workload %q (schemes run: %v): figures normalize against the baseline, so include SchemeBaseline in the scheme set",
			SchemeBaseline, wl, s.Schemes)
	}
	return r, nil
}

// metricTable renders one normalized-metric figure: a column per scheme,
// a row per workload, plus high-contention and overall means.
func (s *Sweep) metricTable(title string, metric func(*Result) float64) (*Table, error) {
	header := []string{"workload"}
	for _, sch := range s.Schemes {
		header = append(header, sch.String())
	}
	t := report.NewTable(title, header...)
	perScheme := make(map[Scheme][]float64)
	perSchemeHC := make(map[Scheme][]float64)
	for _, wl := range s.Workloads {
		b, err := s.Baseline(wl.Name())
		if err != nil {
			return nil, err
		}
		base := metric(b)
		row := []string{wl.Name()}
		for _, sch := range s.Schemes {
			v := metric(s.Results[wl.Name()][sch])
			norm := 0.0
			if base != 0 {
				norm = v / base
			}
			row = append(row, report.Cell(norm))
			perScheme[sch] = append(perScheme[sch], norm)
			if wl.HighContention() {
				perSchemeHC[sch] = append(perSchemeHC[sch], norm)
			}
		}
		t.AddRow(row...)
	}
	hcRow := []string{"mean(high-cont)"}
	allRow := []string{"mean(all)"}
	for _, sch := range s.Schemes {
		hcRow = append(hcRow, report.Cell(report.Mean(perSchemeHC[sch])))
		allRow = append(allRow, report.Cell(report.Mean(perScheme[sch])))
	}
	t.AddRow(hcRow...)
	t.AddRow(allRow...)
	return t, nil
}

// Table1 reproduces Table I: per-workload baseline abort rates, paper
// versus measured.
func (s *Sweep) Table1() (*Table, error) {
	t := report.NewTable("Table I — benchmark abort rates (baseline)",
		"workload", "paper abort %", "measured abort %", "commits", "aborts")
	for _, wl := range s.Workloads {
		r, err := s.Baseline(wl.Name())
		if err != nil {
			return nil, err
		}
		t.AddRow(wl.Name(),
			fmt.Sprintf("%.1f", 100*wl.PaperAbortRate),
			fmt.Sprintf("%.1f", 100*r.AbortRate()),
			fmt.Sprintf("%d", r.Commits), fmt.Sprintf("%d", r.Aborts))
	}
	return t, nil
}

// Table2 renders the simulated system configuration (the paper's Table II).
func Table2(cfg Config) *Table {
	t := report.NewTable("Table II — system configuration", "unit", "value")
	t.AddRow("Cores", fmt.Sprintf("%d in-order cores, abstract ISA", cfg.Nodes))
	t.AddRow("L1 cache", fmt.Sprintf("%d KB, %d-way, write-back, %d-cycle",
		cfg.L1.SizeBytes/1024, cfg.L1.Ways, cfg.L1HitLatency))
	t.AddRow("L2 cache", fmt.Sprintf("shared banked NUCA, %d-cycle bank latency", cfg.L2HitLatency))
	t.AddRow("Coherence", "MESI directory (blocking, SGI-Origin style), static bank interleave")
	t.AddRow("Memory", fmt.Sprintf("%d-cycle cold-miss latency", cfg.MemLatency))
	t.AddRow("Network", fmt.Sprintf("%dx%d mesh, DOR, %d-stage routers, %d-cycle links",
		cfg.Mesh.Width, cfg.Mesh.Height, cfg.Mesh.RouterStages, cfg.Mesh.LinkCycles))
	t.AddRow("HTM", "eager versioning + eager conflict detection, timestamp policy")
	t.AddRow("PUNO", fmt.Sprintf("%d-entry P-Buffer; %d-entry TxLB", cfg.Nodes, cfg.TxLBEntries))
	return t
}

// Fig2 reproduces Fig. 2: the breakdown of transactional GETX accesses by
// outcome under the baseline, per workload.
func (s *Sweep) Fig2() (*Table, error) {
	t := report.NewTable("Fig. 2 — transactional GETX outcome breakdown (baseline, % of accesses)",
		"workload", "false-aborting", "nack-only", "resolved-aborts", "clean")
	for _, wl := range s.Workloads {
		r, err := s.Baseline(wl.Name())
		if err != nil {
			return nil, err
		}
		total := float64(r.TxGETXAccesses)
		if total == 0 {
			total = 1
		}
		pct := func(o GETXOutcome) string {
			return fmt.Sprintf("%.1f", 100*float64(r.GETXOutcomes[o])/total)
		}
		t.AddRow(wl.Name(), pct(OutcomeFalseAbort), pct(OutcomeNackOnly),
			pct(OutcomeResolvedAborts), pct(OutcomeClean))
	}
	return t, nil
}

// Fig3 reproduces Fig. 3: the distribution of the number of transactions
// aborted unnecessarily per false-aborting request, for one workload.
func (s *Sweep) Fig3(workload string) (string, error) {
	r, err := s.Baseline(workload)
	if err != nil {
		return "", err
	}
	return report.Histogram(
		fmt.Sprintf("Fig. 3 — unnecessary aborts per false-aborting request (%s, baseline)", workload),
		r.FalseAbortHist), nil
}

// Fig3All renders the Fig. 3 distribution for every workload that has
// false-aborting events.
func (s *Sweep) Fig3All() (string, error) {
	out := ""
	for _, wl := range s.Workloads {
		r, err := s.Baseline(wl.Name())
		if err != nil {
			return "", err
		}
		if len(r.FalseAbortHist) > 0 {
			h, err := s.Fig3(wl.Name())
			if err != nil {
				return "", err
			}
			out += h + "\n"
		}
	}
	return out, nil
}

// Fig10 reproduces Fig. 10: transaction aborts normalized to the baseline.
func (s *Sweep) Fig10() (*Table, error) {
	return s.metricTable("Fig. 10 — normalized transaction aborts",
		func(r *Result) float64 { return float64(r.Aborts) })
}

// Fig11 reproduces Fig. 11: on-chip network traffic (router traversals by
// flits) normalized to the baseline.
func (s *Sweep) Fig11() (*Table, error) {
	return s.metricTable("Fig. 11 — normalized network traffic (router traversals)",
		func(r *Result) float64 { return float64(r.Net.TotalTraversals()) })
}

// Fig12 reproduces Fig. 12: the average cycles a directory entry spends
// blocked per transactional GETX service, normalized to the baseline.
func (s *Sweep) Fig12() (*Table, error) {
	return s.metricTable("Fig. 12 — normalized directory blocking per TxGETX service",
		func(r *Result) float64 { return r.DirBlockingPerTxGETX() })
}

// Fig13 reproduces Fig. 13: execution time normalized to the baseline.
func (s *Sweep) Fig13() (*Table, error) {
	return s.metricTable("Fig. 13 — normalized execution time",
		func(r *Result) float64 { return float64(r.Cycles) })
}

// Fig14 reproduces Fig. 14: the good/discarded transaction cycle ratio,
// normalized to the baseline (larger is better).
func (s *Sweep) Fig14() (*Table, error) {
	return s.metricTable("Fig. 14 — normalized G/D ratio (larger is better)",
		func(r *Result) float64 { return r.GDRatio() })
}

// Table3 reproduces Table III: PUNO's VLSI area and power overhead.
func Table3(nodes int) string {
	r := area.BuildReport(area.PUNOStructures(nodes), area.Tech65nm(), area.Rock())
	return "== Table III — area and power overhead ==\n" + r.String()
}

// SummaryStats extracts the headline claims the paper's abstract makes, for
// EXPERIMENTS.md: abort reduction and traffic reduction of PUNO vs baseline
// in the high-contention set, and execution-time improvement.
type SummaryStats struct {
	AbortReductionHC    float64 // 1 - normalized aborts, mean over high contention
	TrafficReductionHC  float64
	SpeedupHC           float64 // 1 - normalized execution time
	AbortReductionAll   float64
	TrafficReductionAll float64
	SpeedupAll          float64
}

// Summary computes the headline statistics for PUNO.
func (s *Sweep) Summary() (SummaryStats, error) {
	var st SummaryStats
	var hcN, allN float64
	for _, wl := range s.Workloads {
		base, err := s.Baseline(wl.Name())
		if err != nil {
			return SummaryStats{}, err
		}
		p, ok := s.Results[wl.Name()][SchemePUNO]
		if !ok {
			continue
		}
		na := ratio(float64(p.Aborts), float64(base.Aborts))
		nt := ratio(float64(p.Net.TotalTraversals()), float64(base.Net.TotalTraversals()))
		nc := ratio(float64(p.Cycles), float64(base.Cycles))
		st.AbortReductionAll += 1 - na
		st.TrafficReductionAll += 1 - nt
		st.SpeedupAll += 1 - nc
		allN++
		if wl.HighContention() {
			st.AbortReductionHC += 1 - na
			st.TrafficReductionHC += 1 - nt
			st.SpeedupHC += 1 - nc
			hcN++
		}
	}
	if hcN > 0 {
		st.AbortReductionHC /= hcN
		st.TrafficReductionHC /= hcN
		st.SpeedupHC /= hcN
	}
	if allN > 0 {
		st.AbortReductionAll /= allN
		st.TrafficReductionAll /= allN
		st.SpeedupAll /= allN
	}
	return st, nil
}

func ratio(v, base float64) float64 {
	if base == 0 {
		return 1
	}
	return v / base
}

// SortedWorkloadNames lists the sweep's workloads in Table I order.
func (s *Sweep) SortedWorkloadNames() []string {
	names := make([]string, 0, len(s.Workloads))
	for _, wl := range s.Workloads {
		names = append(names, wl.Name())
	}
	return names
}

// ScaledWorkloads returns the standard suite with each profile's
// transaction count multiplied by f (benchmark scaling; f<1 shrinks runs
// for -short tests).
func ScaledWorkloads(f float64) []*Profile {
	out := stamp.All()
	for i, p := range out {
		n := int(float64(p.TxPerCPU())*f + 0.5)
		if n < 2 {
			n = 2
		}
		out[i] = p.WithTxPerCPU(n)
	}
	return out
}
