package puno

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// tinyWorkloads shrinks the suite so API tests stay fast.
func tinyWorkloads() []*Profile { return ScaledWorkloads(0.08) }

func TestRunSingleWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	res, err := Run(cfg, MustWorkload("genome").WithTxPerCPU(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 160 {
		t.Fatalf("commits = %d, want 160", res.Commits)
	}
	if res.Cycles == 0 || res.Net.TotalTraversals() == 0 {
		t.Fatal("empty measurements")
	}
}

func TestRunSweepAndFigures(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	sweep, err := RunSweep(cfg, tinyWorkloads(), Schemes())
	if err != nil {
		t.Fatal(err)
	}

	renders := map[string]func() (*Table, error){"table1": sweep.Table1, "fig2": sweep.Fig2}
	for _, f := range Figures() {
		renders[f.Name] = func() (*Table, error) { return sweep.Figure(f) }
	}
	if len(renders) != 7 {
		t.Fatalf("Figures() lists %d figures, want fig10..fig14", len(renders)-2)
	}
	for name, render := range renders {
		tbl, err := render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := tbl.String()
		if !strings.Contains(out, "bayes") || !strings.Contains(out, "vacation") {
			t.Errorf("%s missing workload rows:\n%s", name, out)
		}
		if name != "table1" && name != "fig2" {
			if !strings.Contains(out, "PUNO") || !strings.Contains(out, "mean(high-cont)") {
				t.Errorf("%s missing scheme columns or means:\n%s", name, out)
			}
		}
		if csv := tbl.CSV(); !strings.Contains(csv, ",") {
			t.Errorf("%s CSV rendering broken", name)
		}
	}

	fig3, err := sweep.Fig3All()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig3, "Fig. 3") {
		t.Errorf("Fig3All produced no histograms:\n%s", fig3)
	}

	st, err := sweep.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if st.TrafficReductionHC == 0 && st.AbortReductionHC == 0 {
		t.Error("summary statistics all zero")
	}
}

func TestBaselineMissingIsDescriptiveError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	wls := []*Profile{MustWorkload("kmeans").WithTxPerCPU(4)}
	sweep, err := RunSweep(cfg, wls, []Scheme{SchemePUNO})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Baseline("kmeans"); err == nil {
		t.Fatal("Baseline without SchemeBaseline in the scheme set did not error")
	} else if !strings.Contains(err.Error(), "Baseline") || !strings.Contains(err.Error(), "kmeans") {
		t.Fatalf("baseline error not descriptive: %v", err)
	}
	if _, err := sweep.Figure(fig10); err == nil {
		t.Fatal("Fig. 10 without baseline did not propagate the error")
	}
	if _, err := sweep.Summary(); err == nil {
		t.Fatal("Summary without baseline did not propagate the error")
	}
}

// TestZeroBaselineRule pins the one normalization rule on a matrix built by
// hand (no simulation): intruder (high contention) has a zero-abort
// baseline, kmeans does not, and the three schemes cover the three cases
// over two seeds. Summary must read the same mean rows the figures print.
func TestZeroBaselineRule(t *testing.T) {
	run := func(aborts uint64) *Result {
		r := &Result{Aborts: aborts, Cycles: Time(1000 + 100*aborts)}
		r.Net.RouterTraversal[0] = 500 + 50*aborts
		return r
	}
	s := &Sweep{
		Workloads: []*Profile{MustWorkload("intruder"), MustWorkload("kmeans")},
		Schemes:   []Scheme{SchemeBaseline, SchemeBackoff, SchemePUNO},
		Seeds:     []uint64{1, 2},
		Runs: map[string]map[Scheme][]*Result{
			"intruder": {
				SchemeBaseline: {run(0), run(0)}, // 0/0: nothing changed, 1
				SchemeBackoff:  {run(3), run(5)}, // v/0 on both seeds: no cell
				SchemePUNO:     {run(2), run(0)}, // seed 1 has no ratio, seed 2 is 1
			},
			"kmeans": {
				SchemeBaseline: {run(4), run(8)},
				SchemeBackoff:  {run(2), run(2)}, // 0.5, 0.25
				SchemePUNO:     {run(1), run(4)}, // 0.25, 0.5
			},
		},
	}
	tbl, err := s.Figure(fig10)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"intruder", "1.000±0.000", "n/a", "1.000"},
		{"kmeans", "1.000±0.000", "0.375±0.177", "0.375±0.177"},
		{"mean(high-cont)", "1.000", "n/a", "1.000"},
		{"mean(all)", "1.000", "0.375", "0.688"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Fatalf("Fig. 10 rows:\n got %v\nwant %v", tbl.Rows, want)
	}
	n, err := s.Normalized(fig10.Metric)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Cells["intruder"][SchemePUNO].N; got != 1 {
		t.Errorf("intruder/PUNO N = %d, want 1 (seed 1 excluded)", got)
	}
	if got := n.Cells["intruder"][SchemeBackoff].N; got != 0 {
		t.Errorf("intruder/Backoff N = %d, want 0", got)
	}

	st, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		fig     Figure
		hc, all float64
	}{
		{fig10, st.AbortReductionHC, st.AbortReductionAll},
		{fig11, st.TrafficReductionHC, st.TrafficReductionAll},
		{fig13, st.SpeedupHC, st.SpeedupAll},
	} {
		n, err := s.Normalized(c.fig.Metric)
		if err != nil {
			t.Fatal(err)
		}
		if c.hc != 1-n.HighCont[SchemePUNO] || c.all != 1-n.All[SchemePUNO] {
			t.Errorf("%s: summary (%v, %v) is not 1 - the PUNO mean rows (%v, %v)",
				c.fig.Name, c.hc, c.all, n.HighCont[SchemePUNO], n.All[SchemePUNO])
		}
	}
	if st.AbortReductionAll != 1-0.6875 {
		t.Errorf("AbortReductionAll = %v, want %v", st.AbortReductionAll, 1-0.6875)
	}
}

func TestTable2And3NeedNoSimulation(t *testing.T) {
	// Table II pinned by value: the L1, L2, memory and TxLB figures are
	// constants, not Config fields, so this is where each one is checked.
	// Cells are padded to their column's width; trailing padding is
	// trimmed before the comparison.
	const want2 = `== Table II — system configuration ==
unit       value
---------  -------------------------------------------------------------------
Cores      16 in-order cores, abstract ISA
L1 cache   32 KB, 4-way, write-back, 1-cycle
L2 cache   shared banked NUCA, 20-cycle bank latency
Coherence  MESI directory (blocking, SGI-Origin style), static bank interleave
Memory     200-cycle cold-miss latency
Network    4x4 mesh, DOR, 4-stage routers, 1-cycle links
HTM        eager versioning + eager conflict detection, timestamp policy
PUNO       16-entry P-Buffer; 32-entry TxLB
`
	lines := strings.Split(Table2(DefaultConfig()).String(), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	if t2 := strings.Join(lines, "\n"); t2 != want2 {
		t.Errorf("Table2 =\n%s\nwant\n%s", t2, want2)
	}
	t3 := Table3(16)
	for _, want := range []string{"Prio-Buffer", "TxLB", "UD pointers", "0.41%", "0.31%"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table3 missing %q:\n%s", want, t3)
		}
	}
}

func TestWorkloadRegistryThroughFacade(t *testing.T) {
	if len(Workloads()) != 8 {
		t.Fatalf("Workloads() = %d, want 8", len(Workloads()))
	}
	if len(HighContentionWorkloads()) != 4 {
		t.Fatal("high-contention subset wrong")
	}
	if _, err := WorkloadByName("nosuch"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCustomProfileThroughFacade(t *testing.T) {
	wl := NewProfile("custom", false, 5,
		Class{StaticID: 900, Weight: 1, RegionLines: 32, ReadsMin: 2, ReadsMax: 4,
			WritesMin: 1, WritesMax: 1, WritesFromReads: true, BodyCompute: 50, Think: 30})
	cfg := DefaultConfig()
	res, err := Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 5*16 {
		t.Fatalf("commits = %d, want 80", res.Commits)
	}
}

func TestCustomWorkloadViaProgramFunc(t *testing.T) {
	wl := funcWorkload{incrs: make(map[Addr]uint64)}
	m, err := NewMachine(DefaultConfig(), wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 16*3 {
		t.Fatalf("commits = %d, want 48", res.Commits)
	}
	// Serializability through the facade, against the programs' own count.
	m.DrainCaches()
	var total uint64
	for a, want := range wl.incrs {
		if got := m.Backing().LoadWord(a); got != want {
			t.Fatalf("addr %#x = %d, want %d", uint64(a), got, want)
		}
		total += want
	}
	if total != 16*3 {
		t.Fatalf("committed increments = %d, want 48", total)
	}
}

// funcWorkload runs three one-increment transactions per node on the words
// of one shared line. The machine asks a program for its next transaction
// only after the current one commits, so each call first adds the previous
// transaction's increment to incrs.
type funcWorkload struct{ incrs map[Addr]uint64 }

func (funcWorkload) Name() string         { return "func" }
func (funcWorkload) HighContention() bool { return false }
func (w funcWorkload) Program(node int, _ *RNG) Program {
	n := 0
	var last Addr
	return ProgramFunc(func(rng *RNG) (TxInstance, bool) {
		if n > 0 {
			w.incrs[last]++
		}
		if n >= 3 {
			return TxInstance{}, false
		}
		n++
		last = LineAddr(0x9000, rng.Intn(4))
		return TxInstance{
			StaticID: 7,
			Ops: []Op{
				{Kind: OpIncr, Addr: last},
				{Kind: OpCompute, Cycles: 25},
			},
			ThinkCycles: 40,
		}, true
	})
}

func TestDeterministicSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 77
	wls := []*Profile{MustWorkload("kmeans").WithTxPerCPU(15)}
	s1, err := RunSweep(cfg, wls, []Scheme{SchemePUNO})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RunSweep(cfg, wls, []Scheme{SchemePUNO})
	if err != nil {
		t.Fatal(err)
	}
	a := s1.Runs["kmeans"][SchemePUNO][0]
	b := s2.Runs["kmeans"][SchemePUNO][0]
	if a.Cycles != b.Cycles || a.Aborts != b.Aborts || a.Net.TotalTraversals() != b.Net.TotalTraversals() {
		t.Fatal("same-seed sweeps diverged")
	}
}

func TestScaledWorkloads(t *testing.T) {
	full := Workloads()
	scaled := ScaledWorkloads(0.5)
	for i := range full {
		if scaled[i].TxPerCPU() >= full[i].TxPerCPU() {
			t.Fatalf("%s not scaled down", full[i].Name())
		}
		if scaled[i].TxPerCPU() < 2 {
			t.Fatalf("%s scaled below floor", full[i].Name())
		}
	}
}

// An ablation table's row i, seed j is point i run alone at seed j: Specs
// and Table agree on the point-major order, and each cell folds its own
// point's seeds.
func TestAblationTableFoldsEachPointsSeeds(t *testing.T) {
	var a Ablation
	for _, x := range Ablations() {
		if x.Name == "schemes" {
			a = x
		}
	}
	wl := ScaleWorkload(MustWorkload(a.Workload), 0.03)
	seeds := []uint64{1, 2}
	results, err := RunSpecs(context.Background(), a.Specs(DefaultConfig(), wl, seeds), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl := a.Table(wl, results)
	for i, p := range a.Points {
		var cycles []float64
		for _, seed := range seeds {
			cfg := DefaultConfig()
			p.Apply(&cfg)
			cfg.Seed = seed
			r, err := Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			cycles = append(cycles, float64(r.Cycles))
		}
		if got, want := tbl.Rows[i][1], statOf(cycles).format(0); got != want {
			t.Errorf("%s cycles = %s, want %s from direct runs", p.Label, got, want)
		}
	}
}

// TestOverflowStaysCold pins the traffic the event queue's overflow level
// is sized for. The engine keeps far events in a sorted list with a linear
// insert, which is the right structure only while delays beyond the wheel
// window stay rare: PUNO's notification-guided sleeps and the restart
// backoffs, at most one per node at a time. If a model change makes long
// timers common, this fails before that insert can cost anything.
func TestOverflowStaysCold(t *testing.T) {
	type point struct {
		cfg Config
		wl  Workload
	}
	var points []point
	for _, p := range ScaledWorkloads(0.05) {
		for _, s := range Schemes() {
			cfg := DefaultConfig()
			cfg.Scheme = s
			points = append(points, point{cfg, p})
		}
	}
	big := DefaultConfig()
	big.Scheme = SchemePUNO
	big.Mesh.Width, big.Mesh.Height, big.Nodes = 8, 8, 64
	points = append(points, point{big, MustWorkload("intruder").WithTxPerCPU(3)})

	for _, pt := range points {
		pt.cfg.Seed = 42
		pt.cfg.MaxCycles = 1_000_000 // a storming point still counts its first 10^6 cycles
		m, err := NewMachine(pt.cfg, pt.wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil && !errors.Is(err, machine.ErrHung) {
			t.Fatalf("%s/%v: %v", pt.wl.Name(), pt.cfg.Scheme, err)
		}
		eng := m.Engine()
		if eng.Processed() == 0 {
			t.Fatalf("%s/%v ran no events", pt.wl.Name(), pt.cfg.Scheme)
		}
		if eng.Spilled() > eng.Processed()/1000 {
			t.Errorf("%s/%v on %d nodes: %d of %d events scheduled beyond the %d-cycle wheel window; the spill list assumes at most 0.1%%",
				pt.wl.Name(), pt.cfg.Scheme, pt.cfg.Nodes, eng.Spilled(), eng.Processed(), sim.DefaultWheelWindow)
		}
	}
}
