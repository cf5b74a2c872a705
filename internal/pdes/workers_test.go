package pdes

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestShardedWorkerGoroutinesMatchSerial forces the worker-goroutine path
// (the coordinator runs windows inline when GOMAXPROCS is 1, which it is on
// single-core CI) and certifies the barrier protocol end to end: a run
// executed by racing shard workers is value-identical to the serial run,
// and a second Run on the same coordinator — whose workers are per-Run and
// must be joined, not just signaled — reproduces it. The name contains
// "Sharded" so `make race-shards` exercises this under the race detector.
func TestShardedWorkerGoroutinesMatchSerial(t *testing.T) { shardedRunMatchesSerial(t, 4) }

// TestShardedInlineWindowsMatchSerial forces the other branch of that
// choice: with GOMAXPROCS 1 the coordinator runs every participant's window
// inline on its own goroutine. Forcing both branches keeps the package's
// behaviour — and its measured coverage — the same on one-core and
// many-core hosts.
func TestShardedInlineWindowsMatchSerial(t *testing.T) { shardedRunMatchesSerial(t, 1) }

func shardedRunMatchesSerial(t *testing.T, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	wl := testWL(t, "intruder", 4)
	cfg := machine.DefaultConfig()
	cfg.Scheme = machine.SchemePUNO
	cfg.Seed = 42

	m, err := machine.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg.Shards = 4
	co, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded run differs from serial:\n got: %+v\nwant: %+v", got, want)
	}

	if err := co.Reset(cfg, wl); err != nil {
		t.Fatal(err)
	}
	again, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("second sharded run differs from serial:\n got: %+v\nwant: %+v", again, want)
	}
}
