package pdes

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stamp"
)

func testWL(t *testing.T, name string, txper int) machine.Workload {
	t.Helper()
	wl, err := stamp.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl.WithTxPerCPU(txper)
}

// runBytes calls run and encodes its result with the codec the repository
// benchmark compares artifacts with.
func runBytes(t *testing.T, run func() (*machine.Result, error)) []byte {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := machine.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShardedMatchesSerialResult is the contract the benchmark's sharded
// probe checks: New→Run, and Reset→Run on the same coordinator, encode to
// exactly the bytes machine.New→Run does. The 64-node point is the
// benchmark's own sim_big64 shape at four shards, and one coordinator is
// reused across both shapes.
func TestShardedMatchesSerialResult(t *testing.T) {
	small := machine.DefaultConfig()
	small.Scheme = machine.SchemeBaseline
	big := machine.DefaultConfig()
	big.Scheme = machine.SchemePUNO
	big.Mesh.Width, big.Mesh.Height, big.Nodes = 8, 8, 64
	specs := []struct {
		name string
		cfg  machine.Config
		wl   machine.Workload
	}{
		{"kmeans/Baseline/16", small, testWL(t, "kmeans", 4)},
		{"intruder/PUNO/64", big, testWL(t, "intruder", 3)},
	}
	var co *Coordinator
	for _, sp := range specs {
		m, err := machine.New(sp.cfg, sp.wl)
		if err != nil {
			t.Fatal(err)
		}
		want := runBytes(t, m.Run)

		cfg := sp.cfg
		cfg.Shards = 4
		if co == nil {
			co, err = New(cfg, sp.wl)
		} else {
			err = co.Reset(cfg, sp.wl)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := runBytes(t, co.Run); !bytes.Equal(got, want) {
			t.Errorf("%s: the coordinator's result differs from the serial engine's", sp.name)
		}
		if err := co.Reset(cfg, sp.wl); err != nil {
			t.Fatal(err)
		}
		if got := runBytes(t, co.Run); !bytes.Equal(got, want) {
			t.Errorf("%s: the reset coordinator's result differs from the serial engine's", sp.name)
		}
	}
}

// noHintWL strips the footprint hint from a workload, leaving the rest of
// its behavior intact.
type noHintWL struct{ machine.Workload }

func (w noHintWL) Program(nodeID int, rng *sim.RNG) machine.Program {
	return w.Workload.Program(nodeID, rng)
}

// TestEligibleRejections: Eligible is true exactly when Shards > 1,
// whatever the scheme (ATS included) and whether or not the workload hints
// its footprint.
func TestEligibleRejections(t *testing.T) {
	wl := testWL(t, "intruder", 2)
	base := machine.DefaultConfig()
	base.Scheme = machine.SchemePUNO
	cases := []struct {
		name   string
		shards int
		scheme machine.Scheme
		wl     machine.Workload
		want   bool
	}{
		{"shards-0", 0, machine.SchemePUNO, wl, false},
		{"shards-1", 1, machine.SchemePUNO, wl, false},
		{"shards-2", 2, machine.SchemePUNO, wl, true},
		{"ats", 4, machine.SchemeATS, wl, true},
		{"no-hint", 4, machine.SchemePUNO, noHintWL{wl}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Shards, cfg.Scheme = tc.shards, tc.scheme
			if got := Eligible(cfg, tc.wl); got != tc.want {
				t.Errorf("Eligible = %v, want %v", got, tc.want)
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

// TestResetAfterHungShardedRun: a coordinator whose run hit MaxCycles
// resets cleanly and then produces exactly what a fresh one produces.
func TestResetAfterHungShardedRun(t *testing.T) {
	wl := testWL(t, "intruder", 4)
	good := machine.DefaultConfig()
	good.Scheme = machine.SchemeBaseline
	good.Shards = 4
	hang := good
	hang.MaxCycles = 500 // far too few cycles: guaranteed ErrHung

	co, err := New(hang, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(); !errors.Is(err, machine.ErrHung) {
		t.Fatalf("truncated run: err = %v, want ErrHung", err)
	}
	if err := co.Reset(good, wl); err != nil {
		t.Fatal(err)
	}
	got, err := co.Run()
	if err != nil {
		t.Fatalf("run after reset-from-failure: %v", err)
	}
	fresh, err := New(good, wl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-failure reset diverged from a fresh coordinator\n got: %+v\nwant: %+v", got, want)
	}
}
