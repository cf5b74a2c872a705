package pdes_test

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pdes"
	"repro/internal/probe"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// TestShardedCoalescedWindowsMatchSerial is the worker-goroutine run for
// the empty-window coalescing path: a low-contention RMW workload leaves
// many windows with no staged remote send, so consecutive windows run
// without a commit barrier between them — under -race (make race-shards)
// this certifies the deferred commit never lets a worker touch state the
// barrier was protecting. The test asserts coalescing actually fired, so
// a workload or lookahead change cannot quietly turn it vacuous.
//
// It runs untraced and traced: both go through the one window drain, and a
// traced batch additionally carries staged emissions across the skipped
// commits, so the traced leg compares the normalized punoevt/1 bytes too.
func TestShardedCoalescedWindowsMatchSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	p, err := stamp.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	wl := p.WithTxPerCPU(6)

	for _, traced := range []bool{false, true} {
		cfg := machine.DefaultConfig()
		cfg.Scheme = machine.SchemeBaseline
		cfg.Seed = 42
		var serialEvs, shardedEvs probe.Buffer
		if traced {
			cfg.EventSink = &serialEvs
		}

		m, err := machine.New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}

		cfg.Shards = 4
		if traced {
			cfg.EventSink = &shardedEvs
		}
		co, err := pdes.New(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := co.Run()
		if err != nil {
			t.Fatal(err)
		}
		if co.Coalesced() == 0 {
			t.Fatalf("traced=%v: no send-free window skipped its commit: the coalescing path never ran", traced)
		}
		t.Logf("traced=%v: %d windows coalesced", traced, co.Coalesced())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("traced=%v: coalesced-window run differs from serial:\n got: %+v\nwant: %+v", traced, got, want)
		}
		if !traced {
			continue
		}
		if serialEvs.Len() == 0 {
			t.Fatal("the serial capture is empty: the traced leg compares nothing")
		}
		wantBytes := evtBytes(t, wl.Name(), m.LineTable(), serialEvs.Events())
		gotBytes := evtBytes(t, wl.Name(), co.LineTable(), shardedEvs.Events())
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("coalesced-window trace differs from serial: %d vs %d bytes, %d vs %d events",
				len(gotBytes), len(wantBytes), shardedEvs.Len(), serialEvs.Len())
		}
	}
}

// evtBytes is the punoevt/1 encoding of a capture after line-id
// normalization — what `experiments -trace` writes for it.
func evtBytes(t *testing.T, workload string, lines []mem.Line, evs []probe.Event) []byte {
	t.Helper()
	et := &trace.EventTrace{Workload: workload, Seed: 42, Lines: lines, Events: evs}
	var b bytes.Buffer
	if err := et.Normalized().Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
