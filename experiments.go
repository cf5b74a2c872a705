package puno

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/area"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stamp"
)

// Table is an ASCII/CSV-renderable result table.
type Table = report.Table

// Sweep is the (workload, scheme, seed) run matrix — the input to every
// table and figure. Each cell holds one Result per seed, in Seeds order; with
// more than one seed the figures report a mean and a band instead of a
// single sample.
type Sweep struct {
	Workloads []*Profile
	Schemes   []Scheme
	Seeds     []uint64
	// Runs[workload name][scheme][seed index]
	Runs map[string]map[Scheme][]*Result
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
// mesh handlers) and the Result copy Run returns — a constant per node
// count — and nothing per event or per transaction, under any scheme.
// Results are identical to fresh construction — Machine.Reset and New share
// one code path. An Arena is not safe for concurrent use; long-lived pools
// (punoserve) keep one per worker goroutine, exactly as RunSpecs does.
type Arena struct {
	m *Machine
}

// NewArena returns an empty arena; the first Run populates it.
func NewArena() *Arena { return &Arena{} }

// Run executes one spec on the arena and returns a deep copy of the
// result (the machine's internal Result is reused by the next run).
func (a *Arena) Run(sp RunSpec) (*Result, error) {
	var err error
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
	ropts := runner.Options{
		Workers:  opts.Parallel,
		Progress: opts.Progress,
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

// RunSweep is the one-seed RunEnsemble: every workload under every scheme at
// base.Seed, in parallel across GOMAXPROCS workers.
func RunSweep(base Config, workloads []*Profile, schemes []Scheme) (*Sweep, error) {
	return RunEnsemble(context.Background(), base, workloads, schemes, []uint64{base.Seed}, SweepOptions{})
}

// RunEnsemble executes the (workload, scheme, seed) run matrix, fanning all
// runs across one worker pool per opts. base.Scheme and base.Seed are
// overridden per run. Results are deterministic regardless of parallelism.
func RunEnsemble(ctx context.Context, base Config, workloads []*Profile, schemes []Scheme, seeds []uint64, opts SweepOptions) (*Sweep, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("puno: RunEnsemble needs at least one seed")
	}
	specs := make([]RunSpec, 0, len(workloads)*len(schemes)*len(seeds))
	for _, wl := range workloads {
		for _, sch := range schemes {
			for _, seed := range seeds {
				cfg := base
				cfg.Scheme = sch
				cfg.Seed = seed
				specs = append(specs, RunSpec{Config: cfg, Workload: wl})
			}
		}
	}
	results, err := RunSpecs(ctx, specs, opts)
	if err != nil {
		return nil, err
	}
	s := &Sweep{Workloads: workloads, Schemes: schemes, Seeds: seeds, Runs: map[string]map[Scheme][]*Result{}}
	for _, wl := range workloads {
		s.Runs[wl.Name()] = make(map[Scheme][]*Result, len(schemes))
		for _, sch := range schemes {
			s.Runs[wl.Name()][sch], results = results[:len(seeds)], results[len(seeds):]
		}
	}
	return s, nil
}

// Baseline fetches a workload's baseline runs, one per seed (every figure
// normalizes against them). It returns a descriptive error when the sweep's
// scheme set lacks SchemeBaseline or the workload is unknown.
func (s *Sweep) Baseline(wl string) ([]*Result, error) {
	runs, ok := s.Runs[wl][SchemeBaseline]
	if !ok {
		return nil, fmt.Errorf("sweep has no %v result for workload %q (schemes run: %v): figures normalize against the baseline, so include SchemeBaseline in the scheme set",
			SchemeBaseline, wl, s.Schemes)
	}
	return runs, nil
}

// title says how a multi-seed table's cells aggregate the seeds.
func (s *Sweep) title(base, how string) string { return seedsTitle(base, how, len(s.Seeds)) }

// seedsTitle says how a table's cells aggregate n seeds.
func seedsTitle(base, how string, n int) string {
	if n == 1 {
		return base
	}
	return fmt.Sprintf("%s (%s over %d seeds)", base, how, n)
}

// meanOver averages metric over a cell's seeds: Table I and Fig. 2 report means.
func meanOver(runs []*Result, metric func(*Result) float64) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = metric(r)
	}
	return report.Mean(vals)
}

// Stat is a mean and sample standard deviation over the N seeds of a cell
// that have a value; with N zero the mean is NaN.
type Stat struct {
	Mean   float64
	Stddev float64
	N      int
}

// String renders the stat as a figure cell: mean±stddev over several seeds,
// the bare value for one, n/a (a NaN mean) for none.
func (s Stat) String() string { return s.format(3) }

// format renders the stat with prec decimals.
func (s Stat) format(prec int) string {
	switch {
	case s.N > 1:
		return fmt.Sprintf("%.*f±%.*f", prec, s.Mean, prec, s.Stddev)
	case math.IsNaN(s.Mean):
		return "n/a"
	}
	return fmt.Sprintf("%.*f", prec, s.Mean)
}

func statOf(vals []float64) Stat {
	st := Stat{N: len(vals), Mean: report.Mean(vals)}
	if len(vals) > 1 {
		var ss float64
		for _, v := range vals {
			d := v - st.Mean
			ss += d * d
		}
		st.Stddev = math.Sqrt(ss / float64(len(vals)-1))
	}
	return st
}

// normalize is the one baseline-normalization rule, applied seed by seed
// against the same seed's baseline run. A zero baseline with a zero value
// is 1 — nothing changed, so the Baseline column is 1.000 by construction;
// a zero baseline with a non-zero value has no ratio, and ok is false.
func normalize(v, base float64) (ratio float64, ok bool) {
	switch {
	case base != 0:
		return v / base, true
	case v == 0:
		return 1, true
	}
	return 0, false
}

// Normalized is one metric folded over the run matrix: the data behind every
// normalized figure and behind Summary.
type Normalized struct {
	// Cells[workload name][scheme]: the Stat over the seeds whose ratio to
	// the same seed's baseline run is defined (N says how many).
	Cells map[string]map[Scheme]Stat
	// The mean rows: per scheme, the mean of its cells' means over the
	// high-contention workloads and over all (NaN when no cell has a value).
	HighCont, All map[Scheme]float64
}

// Normalized folds metric over the matrix, normalized to the baseline.
func (s *Sweep) Normalized(metric func(*Result) float64) (*Normalized, error) {
	n := &Normalized{Cells: map[string]map[Scheme]Stat{}, HighCont: map[Scheme]float64{}, All: map[Scheme]float64{}}
	hc, all := map[Scheme][]float64{}, map[Scheme][]float64{}
	for _, wl := range s.Workloads {
		bases, err := s.Baseline(wl.Name())
		if err != nil {
			return nil, err
		}
		n.Cells[wl.Name()] = make(map[Scheme]Stat, len(s.Schemes))
		for _, sch := range s.Schemes {
			var vals []float64
			for i, r := range s.Runs[wl.Name()][sch] {
				if v, ok := normalize(metric(r), metric(bases[i])); ok {
					vals = append(vals, v)
				}
			}
			st := statOf(vals)
			n.Cells[wl.Name()][sch] = st
			if st.N == 0 {
				continue
			}
			all[sch] = append(all[sch], st.Mean)
			if wl.HighContention() {
				hc[sch] = append(hc[sch], st.Mean)
			}
		}
	}
	for _, sch := range s.Schemes {
		n.HighCont[sch], n.All[sch] = report.Mean(hc[sch]), report.Mean(all[sch])
	}
	return n, nil
}

// Figure is one of the paper's normalized-to-baseline figures.
type Figure struct {
	Name   string // the -exp value, "fig10"
	Title  string
	Metric func(*Result) float64
}

// Figs. 10–14 — the one place their names, titles and metrics are written;
// the library and cmd/experiments read it.
var (
	fig10 = Figure{"fig10", "Fig. 10 — normalized transaction aborts",
		func(r *Result) float64 { return float64(r.Aborts) }}
	// On-chip network traffic: router traversals by flits.
	fig11 = Figure{"fig11", "Fig. 11 — normalized network traffic (router traversals)",
		func(r *Result) float64 { return float64(r.Net.TotalTraversals()) }}
	// Average cycles a directory entry spends blocked per TxGETX service.
	fig12 = Figure{"fig12", "Fig. 12 — normalized directory blocking per TxGETX service",
		(*Result).DirBlockingPerTxGETX}
	fig13 = Figure{"fig13", "Fig. 13 — normalized execution time",
		func(r *Result) float64 { return float64(r.Cycles) }}
	// The good/discarded transaction cycle ratio.
	fig14 = Figure{"fig14", "Fig. 14 — normalized G/D ratio (larger is better)",
		(*Result).GDRatio}
)

// Figures lists the normalized figures in paper order.
func Figures() []Figure { return []Figure{fig10, fig11, fig12, fig13, fig14} }

// Ablation is one of the design choices DESIGN.md calls out, swept as
// labelled Config edits on one workload; every point runs at every seed.
type Ablation struct {
	Name     string // the -exp value, "validity"
	Title    string
	Workload string // the default workload; cmd/experiments -workload overrides it
	Points   []AblationPoint
}

// AblationPoint is one labelled Config edit of an ablation.
type AblationPoint struct {
	Label string
	Apply func(*Config)
}

// Ablations lists the design-choice sweeps — the one place their points are
// written; cmd/experiments runs each as -exp <name>.
func Ablations() []Ablation {
	validity := Ablation{Name: "validity", Title: "P-Buffer validity timeout (PUNO)", Workload: "labyrinth"}
	for _, mult := range []int{1, 2, 4, 8, 16, 32, 64} {
		validity.Points = append(validity.Points, AblationPoint{fmt.Sprintf("timeout %dx avg tx", mult),
			func(c *Config) { c.Scheme, c.ValidityTimeoutMult = SchemePUNO, mult }})
	}
	validity.Points = append(validity.Points, AblationPoint{"no decay",
		func(c *Config) { c.Scheme, c.DisableValidity = SchemePUNO, true }})

	guard := Ablation{Name: "guard", Title: "notification guard band (PUNO; paper: 2x avg cache-to-cache)", Workload: "bayes"}
	for _, g := range []Time{1, 12, 23, 46, 92, 184, 368} {
		guard.Points = append(guard.Points, AblationPoint{fmt.Sprintf("guard %d cycles", g),
			func(c *Config) { c.Scheme, c.NotifyGuardOverride = SchemePUNO, g }})
	}

	mesh := Ablation{Name: "mesh", Title: "machine size (Baseline vs PUNO)", Workload: "intruder"}
	for _, d := range []struct{ w, h int }{{2, 2}, {4, 2}, {4, 4}, {8, 4}} {
		for _, sch := range []Scheme{SchemeBaseline, SchemePUNO} {
			mesh.Points = append(mesh.Points, AblationPoint{fmt.Sprintf("%dx%d %v", d.w, d.h, sch),
				func(c *Config) { c.Scheme, c.Mesh.Width, c.Mesh.Height, c.Nodes = sch, d.w, d.h, d.w*d.h }})
		}
	}

	// AllSchemes includes PUNO's parts (unicast only, notification only).
	schemes := Ablation{Name: "schemes", Title: "every scheme, PUNO's parts and the extensions", Workload: "intruder"}
	for _, sch := range AllSchemes() {
		schemes.Points = append(schemes.Points, AblationPoint{sch.String(), func(c *Config) { c.Scheme = sch }})
	}

	signatures := Ablation{Name: "signatures", Title: "exact read/write sets vs Bloom signatures (Baseline)", Workload: "intruder"}
	for _, bits := range []int{0, 512, 2048} {
		label := "exact sets"
		if bits > 0 {
			label = fmt.Sprintf("%d-bit signatures", bits)
		}
		signatures.Points = append(signatures.Points, AblationPoint{label, func(c *Config) { c.SignatureBits = bits }})
	}
	return []Ablation{validity, guard, mesh, schemes, signatures}
}

// Specs expands the ablation on wl into its runs, point-major: point i at
// seeds[j] is spec i*len(seeds)+j.
func (a Ablation) Specs(base Config, wl Workload, seeds []uint64) []RunSpec {
	specs := make([]RunSpec, 0, len(a.Points)*len(seeds))
	for _, p := range a.Points {
		for _, seed := range seeds {
			cfg := base
			p.Apply(&cfg)
			cfg.Seed = seed
			specs = append(specs, RunSpec{Config: cfg, Workload: wl})
		}
	}
	return specs
}

// Table folds the results of Specs (same order) into one row per point, each
// cell a Stat over the seeds.
func (a Ablation) Table(wl Workload, results []*Result) *Table {
	seeds := len(results) / len(a.Points)
	t := report.NewTable(seedsTitle(a.Title+" on "+wl.Name(), "mean±stddev", seeds),
		"point", "cycles", "aborts", "abort %", "false %", "unnecessary", "traffic")
	cols := []struct {
		prec   int
		metric func(*Result) float64
	}{
		{0, func(r *Result) float64 { return float64(r.Cycles) }},
		{0, func(r *Result) float64 { return float64(r.Aborts) }},
		{1, func(r *Result) float64 { return 100 * r.AbortRate() }},
		{1, func(r *Result) float64 { return 100 * r.FalseAbortFraction() }},
		{0, func(r *Result) float64 { return float64(r.UnnecessaryAborts()) }},
		{0, func(r *Result) float64 { return float64(r.Net.TotalTraversals()) }},
	}
	for i, p := range a.Points {
		runs := results[i*seeds : (i+1)*seeds]
		row := []string{p.Label}
		for _, c := range cols {
			vals := make([]float64, len(runs))
			for j, r := range runs {
				vals[j] = c.metric(r)
			}
			row = append(row, statOf(vals).format(c.prec))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure renders one normalized figure: a column per scheme, a row per workload,
// then the two mean rows (means of per-workload means, so no seed band).
func (s *Sweep) Figure(f Figure) (*Table, error) {
	n, err := s.Normalized(f.Metric)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(s.title(f.Title, "mean±stddev"), "workload")
	for _, sch := range s.Schemes {
		t.Header = append(t.Header, sch.String())
	}
	addRow := func(label string, cell func(Scheme) string) {
		row := []string{label}
		for _, sch := range s.Schemes {
			row = append(row, cell(sch))
		}
		t.AddRow(row...)
	}
	for _, wl := range s.Workloads {
		cells := n.Cells[wl.Name()]
		addRow(wl.Name(), func(sch Scheme) string { return cells[sch].String() })
	}
	addRow("mean(high-cont)", func(sch Scheme) string { return report.Cell(n.HighCont[sch]) })
	addRow("mean(all)", func(sch Scheme) string { return report.Cell(n.All[sch]) })
	return t, nil
}

// Table1 reproduces Table I: per-workload baseline abort rates, paper
// versus measured.
func (s *Sweep) Table1() (*Table, error) {
	t := report.NewTable(s.title("Table I — benchmark abort rates (baseline)", "mean"),
		"workload", "paper abort %", "measured abort %", "commits", "aborts")
	for _, wl := range s.Workloads {
		runs, err := s.Baseline(wl.Name())
		if err != nil {
			return nil, err
		}
		t.AddRow(wl.Name(),
			fmt.Sprintf("%.1f", 100*wl.PaperAbortRate),
			fmt.Sprintf("%.1f", 100*meanOver(runs, (*Result).AbortRate)),
			fmt.Sprintf("%.0f", meanOver(runs, func(r *Result) float64 { return float64(r.Commits) })),
			fmt.Sprintf("%.0f", meanOver(runs, func(r *Result) float64 { return float64(r.Aborts) })))
	}
	return t, nil
}

// Table2 renders the simulated system configuration (the paper's Table II).
func Table2(cfg Config) *Table {
	t := report.NewTable("Table II — system configuration", "unit", "value")
	t.AddRow("Cores", fmt.Sprintf("%d in-order cores, abstract ISA", cfg.Nodes))
	t.AddRow("L1 cache", fmt.Sprintf("%d KB, %d-way, write-back, %d-cycle",
		cfg.L1.SizeBytes/1024, cfg.L1.Ways, machine.L1HitLatency))
	t.AddRow("L2 cache", fmt.Sprintf("shared banked NUCA, %d-cycle bank latency", machine.L2HitLatency))
	t.AddRow("Coherence", "MESI directory (blocking, SGI-Origin style), static bank interleave")
	t.AddRow("Memory", fmt.Sprintf("%d-cycle cold-miss latency", machine.MemLatency))
	t.AddRow("Network", fmt.Sprintf("%dx%d mesh, DOR, %d-stage routers, %d-cycle links",
		cfg.Mesh.Width, cfg.Mesh.Height, noc.RouterStages, noc.LinkCycles))
	t.AddRow("HTM", "eager versioning + eager conflict detection, timestamp policy")
	t.AddRow("PUNO", fmt.Sprintf("%d-entry P-Buffer; %d-entry TxLB", cfg.Nodes, core.TxLBEntries))
	return t
}

// Fig2 reproduces Fig. 2: the breakdown of transactional GETX accesses by
// outcome under the baseline, per workload.
func (s *Sweep) Fig2() (*Table, error) {
	t := report.NewTable(s.title("Fig. 2 — transactional GETX outcome breakdown (baseline, % of accesses)", "mean"),
		"workload", "false-aborting", "nack-only", "resolved-aborts", "clean")
	for _, wl := range s.Workloads {
		runs, err := s.Baseline(wl.Name())
		if err != nil {
			return nil, err
		}
		pct := func(o GETXOutcome) string {
			return fmt.Sprintf("%.1f", meanOver(runs, func(r *Result) float64 {
				total := float64(r.TxGETXAccesses)
				if total == 0 {
					total = 1
				}
				return 100 * float64(r.GETXOutcomes[o]) / total
			}))
		}
		t.AddRow(wl.Name(), pct(OutcomeFalseAbort), pct(OutcomeNackOnly),
			pct(OutcomeResolvedAborts), pct(OutcomeClean))
	}
	return t, nil
}

// Fig3All reproduces Fig. 3 — the distribution of the number of transactions
// aborted unnecessarily per false-aborting request — for every workload that
// has false-aborting events, its histograms summed over the seeds.
func (s *Sweep) Fig3All() (string, error) {
	out := ""
	for _, wl := range s.Workloads {
		runs, err := s.Baseline(wl.Name())
		if err != nil {
			return "", err
		}
		var hist []uint64
		for _, r := range runs {
			for k, c := range r.FalseAbortHist {
				if k == len(hist) {
					hist = append(hist, 0)
				}
				hist[k] += c
			}
		}
		if len(hist) > 0 {
			title := fmt.Sprintf("Fig. 3 — unnecessary aborts per false-aborting request (%s, baseline)", wl.Name())
			out += report.Histogram(s.title(title, "summed"), hist) + "\n"
		}
	}
	return out, nil
}

// Table3 reproduces Table III: PUNO's VLSI area and power overhead.
func Table3(nodes int) string {
	r := area.BuildReport(area.PUNOStructures(nodes), area.Tech65nm(), area.Rock())
	return "== Table III — area and power overhead ==\n" + r.String()
}

// SummaryStats extracts the headline claims the paper's abstract makes, for
// EXPERIMENTS.md: abort reduction and traffic reduction of PUNO vs baseline
// in the high-contention set, and execution-time improvement. Each is 1 −
// the PUNO entry of a figure's mean row (NaN when that row has no value).
type SummaryStats struct {
	AbortReductionHC    float64 // 1 - normalized aborts, mean over high contention
	TrafficReductionHC  float64
	SpeedupHC           float64 // 1 - normalized execution time
	AbortReductionAll   float64
	TrafficReductionAll float64
	SpeedupAll          float64
}

// Summary reads PUNO's headline statistics off the mean rows of Figs. 10, 11, 13.
func (s *Sweep) Summary() (SummaryStats, error) {
	if !slices.Contains(s.Schemes, SchemePUNO) {
		return SummaryStats{}, fmt.Errorf("sweep has no %v results (schemes run: %v): the summary compares PUNO with the baseline", SchemePUNO, s.Schemes)
	}
	var st SummaryStats
	for _, h := range []struct {
		fig     Figure
		hc, all *float64
	}{
		{fig10, &st.AbortReductionHC, &st.AbortReductionAll},
		{fig11, &st.TrafficReductionHC, &st.TrafficReductionAll},
		{fig13, &st.SpeedupHC, &st.SpeedupAll},
	} {
		n, err := s.Normalized(h.fig.Metric)
		if err != nil {
			return SummaryStats{}, err
		}
		*h.hc, *h.all = 1-n.HighCont[SchemePUNO], 1-n.All[SchemePUNO]
	}
	return st, nil
}

// ScaledWorkloads returns the standard suite with each profile's
// transaction count multiplied by f (f<1 shrinks runs for -short tests).
func ScaledWorkloads(f float64) []*Profile {
	out := stamp.All()
	for i, p := range out {
		out[i] = ScaleWorkload(p, f)
	}
	return out
}

// ScaleWorkload returns p with its transaction count multiplied by f
// (rounded, at least 2).
func ScaleWorkload(p *Profile, f float64) *Profile {
	return p.WithTxPerCPU(max(2, int(float64(p.TxPerCPU())*f+0.5)))
}
