package stamp

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// TestRegistry: All has the eight profiles; ByName, which builds only the
// one it names, returns All's entry field for field, and a fresh copy on
// every call (PaperAbortRate is exported and mutable); an unknown name
// lists the valid ones, sorted.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("All() = %d profiles, want 8", len(all))
	}
	names := map[string]bool{}
	for _, p := range all {
		if names[p.Name()] {
			t.Fatalf("duplicate profile name %q", p.Name())
		}
		names[p.Name()] = true
		got, err := ByName(p.Name())
		if err != nil {
			t.Fatalf("ByName(%q): %v", p.Name(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("ByName(%q) = %+v, All() has %+v", p.Name(), got, p)
		}
		if again, _ := ByName(p.Name()); again == got || &again.Classes()[0] == &got.Classes()[0] {
			t.Fatalf("two ByName(%q) calls share a profile", p.Name())
		}
	}
	for _, want := range []string{"bayes", "intruder", "labyrinth", "yada", "genome", "kmeans", "ssca2", "vacation"} {
		if !names[want] {
			t.Fatalf("missing profile %q", want)
		}
	}
	const unknown = `stamp: unknown workload "nosuch" (have [bayes genome intruder kmeans labyrinth ssca2 vacation yada])`
	if _, err := ByName("nosuch"); err == nil || err.Error() != unknown {
		t.Fatalf("ByName(unknown) error = %v, want %s", err, unknown)
	}
}

func TestHighContentionSubset(t *testing.T) {
	hc := HighContention()
	if len(hc) != 4 {
		t.Fatalf("high-contention subset = %d, want 4", len(hc))
	}
	want := map[string]bool{"bayes": true, "intruder": true, "labyrinth": true, "yada": true}
	for _, p := range hc {
		if !want[p.Name()] {
			t.Fatalf("%q should not be high contention", p.Name())
		}
	}
}

func TestStaticIDsGloballyUnique(t *testing.T) {
	seen := map[int]string{}
	for _, p := range All() {
		for _, c := range p.Classes() {
			if prev, ok := seen[c.StaticID]; ok {
				t.Fatalf("static id %d used by both %s and %s", c.StaticID, prev, p.Name())
			}
			seen[c.StaticID] = p.Name()
		}
	}
}

func TestProgramsDeterministic(t *testing.T) {
	p := Intruder()
	a := p.Program(3, sim.NewRNG(7))
	b := p.Program(3, sim.NewRNG(7))
	rngA, rngB := sim.NewRNG(9), sim.NewRNG(9)
	for i := 0; i < 20; i++ {
		ta, okA := a.Next(rngA)
		tb, okB := b.Next(rngB)
		if okA != okB {
			t.Fatal("programs diverged in length")
		}
		if !okA {
			break
		}
		if ta.StaticID != tb.StaticID || len(ta.Ops) != len(tb.Ops) {
			t.Fatalf("tx %d diverged: %d/%d ops", i, len(ta.Ops), len(tb.Ops))
		}
		for j := range ta.Ops {
			if ta.Ops[j] != tb.Ops[j] {
				t.Fatalf("tx %d op %d diverged", i, j)
			}
		}
	}
}

func TestProgramEndsAfterTxPerCPU(t *testing.T) {
	p := Kmeans().WithTxPerCPU(5)
	prog := p.Program(0, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	n := 0
	for {
		_, ok := prog.Next(rng)
		if !ok {
			break
		}
		n++
		if n > 5 {
			t.Fatal("program exceeded TxPerCPU")
		}
	}
	if n != 5 {
		t.Fatalf("program ran %d txs, want 5", n)
	}
}

func TestInstancesRespectClassShape(t *testing.T) {
	p := Labyrinth()
	prog := p.Program(0, sim.NewRNG(3))
	rng := sim.NewRNG(4)
	tx, ok := prog.Next(rng)
	if !ok {
		t.Fatal("no instance")
	}
	reads, writes := 0, 0
	for _, op := range tx.Ops {
		switch op.Kind {
		case machine.OpRead:
			reads++
		case machine.OpWrite, machine.OpIncr:
			writes++
		}
	}
	if reads != 96 {
		t.Fatalf("labyrinth reads = %d, want whole 96-line grid", reads)
	}
	if writes < 4 || writes > 8 {
		t.Fatalf("labyrinth writes = %d, want 4..8", writes)
	}
}

func TestRMWProfilesUseIncr(t *testing.T) {
	for _, p := range []*Profile{Kmeans(), SSCA2()} {
		prog := p.Program(0, sim.NewRNG(3))
		tx, _ := prog.Next(sim.NewRNG(4))
		hasIncr := false
		for _, op := range tx.Ops {
			if op.Kind == machine.OpIncr {
				hasIncr = true
			}
		}
		if !hasIncr {
			t.Fatalf("%s instance has no OpIncr", p.Name())
		}
	}
}

func TestPrivateStripesDisjoint(t *testing.T) {
	if privateBase(0) == privateBase(1) {
		t.Fatal("private stripes collide")
	}
	// Stripes must clear the largest shared region (ssca2's 8192 lines).
	if uint64(privateBase(0)) < 8192*64 {
		t.Fatal("private stripe overlaps shared regions")
	}
}

// TestCalibration runs every profile on the baseline machine and reports
// the Table I / Fig. 2 calibration metrics. Skipped with -short.
func TestCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration report")
	}
	for _, p := range All() {
		cfg := machine.DefaultConfig()
		cfg.Seed = 12345
		m, err := machine.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		t.Logf("%-10s abort%%=%5.1f (paper %5.1f)  falseGETX%%=%4.1f  commits=%d aborts=%d cycles=%d",
			p.Name(), 100*res.AbortRate(), 100*p.PaperAbortRate,
			100*res.FalseAbortFraction(), res.Commits, res.Aborts, res.Cycles)
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}
