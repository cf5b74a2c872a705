package pdes

import (
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// noHintWL strips the footprint hint from a workload, leaving the rest of
// its behavior intact.
type noHintWL struct{ machine.Workload }

func (w noHintWL) Program(nodeID int, rng *sim.RNG) machine.Program {
	return w.Workload.Program(nodeID, rng)
}

func TestEligibleRejections(t *testing.T) {
	wl := testWL(t, "intruder", 2)
	base := machine.DefaultConfig()
	base.Scheme = machine.SchemePUNO
	base.Shards = 4

	if !Eligible(base, wl) {
		t.Fatal("baseline sharded config rejected")
	}
	cases := []struct {
		name string
		cfg  func(machine.Config) machine.Config
		wl   machine.Workload
	}{
		{"shards-1", func(c machine.Config) machine.Config { c.Shards = 1; return c }, wl},
		{"shards-0", func(c machine.Config) machine.Config { c.Shards = 0; return c }, wl},
		{"ats", func(c machine.Config) machine.Config { c.Scheme = machine.SchemeATS; return c }, wl},
		{"no-hint", func(c machine.Config) machine.Config { return c }, noHintWL{wl}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if Eligible(tc.cfg(base), tc.wl) {
				t.Error("ineligible configuration accepted")
			}
		})
	}
}

func TestNewRejectsIneligibleAndInvalid(t *testing.T) {
	wl := testWL(t, "intruder", 2)
	cfg := machine.DefaultConfig()
	cfg.Scheme = machine.SchemePUNO
	if _, err := New(cfg, wl); err == nil {
		t.Fatal("New accepted a serial (Shards=1) config")
	}
	cfg.Shards = 4
	cfg.Nodes = 15 // does not match the 4x4 mesh
	if _, err := New(cfg, wl); err == nil {
		t.Fatal("New accepted a node count that does not match the mesh")
	}
}

// LineTable exposes the shared interner in ID order. Sharded interleaving
// makes the order itself unstable, but the set of touched lines is the
// serial run's.
func TestLineTableMatchesSerialSet(t *testing.T) {
	wl := testWL(t, "intruder", 2)
	cfg := machine.DefaultConfig()
	cfg.Scheme = machine.SchemePUNO
	cfg.Seed = 42

	m, err := machine.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	serial := m.LineTable()

	cfg.Shards = 4
	co, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(); err != nil {
		t.Fatal(err)
	}
	sharded := co.LineTable()

	if len(serial) != len(sharded) {
		t.Fatalf("line table sizes differ: serial %d, sharded %d", len(serial), len(sharded))
	}
	asSet := func(ls []mem.Line) []mem.Line {
		out := append([]mem.Line(nil), ls...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	a, b := asSet(serial), asSet(sharded)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("line sets differ at sorted index %d: serial %#x, sharded %#x", i, uint64(a[i]), uint64(b[i]))
		}
	}
}
