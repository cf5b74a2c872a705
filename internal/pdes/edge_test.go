package pdes

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/machine"
)

// TestWindowBoundaryExactLookahead pins the lookahead boundary: on a 2x1
// mesh split into two single-node shards, every cross-shard message is a
// one-hop delivery arriving exactly MinRemoteLatency cycles after its send —
// the earliest instant the conservative window bound admits. If the window
// arithmetic were off by one in either direction (injecting into an
// already-executed past, or stalling a window that should close), this
// configuration hits it on every single remote message.
func TestWindowBoundaryExactLookahead(t *testing.T) {
	wl := testWL(t, "intruder", 6)
	cfg := machine.DefaultConfig()
	cfg.Scheme = machine.SchemePUNO
	cfg.Seed = 42
	cfg.Mesh.Width, cfg.Mesh.Height = 2, 1
	cfg.Nodes = 2

	m, err := machine.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	scfg := cfg
	scfg.Shards = 2
	if !Eligible(scfg, wl) {
		t.Fatal("2x1/2-shard config unexpectedly ineligible")
	}
	co, err := New(scfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boundary-latency run diverged\n got: %+v\nwant: %+v", got, want)
	}
	if want.Commits == 0 {
		t.Error("degenerate run: no commits, boundary never exercised")
	}
}

// TestResetAfterHungShardedRun: a coordinator whose run hit MaxCycles
// (ErrHung) mid-flight — shards parked at arbitrary window positions,
// staged cross-shard messages undelivered — must Reset cleanly and then
// produce exactly what a fresh coordinator produces.
func TestResetAfterHungShardedRun(t *testing.T) {
	wl := testWL(t, "intruder", 4)
	good := machine.DefaultConfig()
	good.Scheme = machine.SchemeBaseline
	good.Seed = 42
	good.Shards = 4

	hang := good
	hang.MaxCycles = 500 // far too few cycles: guaranteed ErrHung

	co, err := New(hang, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(); !errors.Is(err, machine.ErrHung) {
		t.Fatalf("truncated sharded run: err = %v, want ErrHung", err)
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
		t.Errorf("post-failure reset diverged from fresh coordinator\n got: %+v\nwant: %+v", got, want)
	}
}
