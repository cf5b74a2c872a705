package puno

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pdes"
)

// shardedCapture is CaptureEvents on the conservative-PDES coordinator,
// which no entry point of the package runs: cfg split across shards worker
// goroutines, returning the Result and the event trace. The trace is
// normalized (LineIDs renumbered into first-appearance order) because shards
// intern their first touches in a nondeterministic order; the serial engine's
// IDs are already in that order, so the two compare byte for byte.
func shardedCapture(t *testing.T, cfg Config, wl Workload, shards int) (*Result, *EventTrace) {
	t.Helper()
	var buf EventBuffer
	cfg.EventSink = &buf
	cfg.Shards = shards
	co, err := pdes.New(cfg, wl)
	if err != nil {
		t.Fatalf("%s/%v shards=%d: %v", wl.Name(), cfg.Scheme, shards, err)
	}
	res, err := co.Run()
	if err != nil {
		t.Fatalf("%s/%v shards=%d: %v", wl.Name(), cfg.Scheme, shards, err)
	}
	et := &EventTrace{
		Workload: wl.Name(),
		Scheme:   cfg.Scheme.String(),
		Seed:     cfg.Seed,
		Lines:    co.LineTable(),
		Events:   buf.Events(),
	}
	return res, et.Normalized()
}

// TestShardedTraceByteIdentical is the PDES contract test: for every
// (workload, scheme) in the determinism set, a sharded run's binary event
// trace and Result must be byte-for-byte / value-for-value identical to the
// serial run's, for every shard count. On a trace mismatch the failure
// message carries the first-divergence diagnosis, not two full dumps.
func TestShardedTraceByteIdentical(t *testing.T) {
	for _, wl := range detWorkloads() {
		for _, sch := range detSchemes() {
			cfg := detConfig()
			cfg.Scheme = sch

			wantRes, wantTrace, err := CaptureEvents(cfg, wl)
			if err != nil {
				t.Fatalf("%s/%v serial: %v", wl.Name(), sch, err)
			}
			var wantBuf bytes.Buffer
			if err := wantTrace.Save(&wantBuf); err != nil {
				t.Fatal(err)
			}

			for _, shards := range []int{2, 4} {
				gotRes, gotTrace := shardedCapture(t, cfg, wl, shards)
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Errorf("%s/%v shards=%d: Result differs from serial", wl.Name(), sch, shards)
				}
				var gotBuf bytes.Buffer
				if err := gotTrace.Save(&gotBuf); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
					continue
				}
				// The dumps differ: reload both and point at the first
				// divergent event so the failure is one line, not two dumps.
				a, err := LoadEventTrace(bytes.NewReader(wantBuf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				b, err := LoadEventTrace(bytes.NewReader(gotBuf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if d, ok := FirstDivergence(a, b); ok {
					t.Errorf("%s/%v shards=%d: trace differs (A=serial, B=sharded): %s",
						wl.Name(), sch, shards, FormatDivergence(a, b, d))
				} else {
					t.Errorf("%s/%v shards=%d: trace bytes differ but events identical (line-table or header mismatch)",
						wl.Name(), sch, shards)
				}
			}
		}
	}
}

// TestShardedTieBreakExercised guards the (cycle, seq) merge tie-break
// against vacuity: the byte-identity test above only means something if the
// commit merge actually had to order same-cycle events from different
// shards. This test re-captures one high-contention point at two shards and
// asserts the stream contains at least one adjacent same-cycle pair whose
// nodes live on different shards — the exact case a naive per-shard
// concatenation (or a cycle-only comparator) would get wrong.
func TestShardedTieBreakExercised(t *testing.T) {
	const shards = 2
	cfg := detConfig()
	cfg.Scheme = SchemePUNO
	wl := MustWorkload("intruder").WithTxPerCPU(4)

	_, et := shardedCapture(t, cfg, wl, shards)
	// Shard s owns the contiguous node range [s*N/S, (s+1)*N/S).
	owner := func(node int16) int { return int(node) * shards / cfg.Nodes }
	pairs := 0
	for i := 1; i < len(et.Events); i++ {
		a, b := et.Events[i-1], et.Events[i]
		if a.Cycle == b.Cycle && owner(a.Node) != owner(b.Node) {
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatalf("no adjacent same-cycle cross-shard event pairs in %d events: tie-break never exercised", len(et.Events))
	}
	t.Logf("%d same-cycle cross-shard adjacencies across %d events", pairs, len(et.Events))
}

// big256Config is the 16x16-mesh stress point: four times the largest mesh
// the sharer tracking previously supported (the directory's node set was a
// single uint64 word). Footprint hints re-derive automatically — the
// profile's FootprintLines scales with the node count — so the interner
// and dense directory tables pre-size for the larger machine the same way
// the 64-node pair does.
func big256Config() Config {
	cfg := detConfig()
	cfg.Scheme = SchemePUNO
	cfg.Mesh.Width, cfg.Mesh.Height = 16, 16
	cfg.Nodes = 256
	return cfg
}

// big256Workload keeps the 256-node runs affordable in the test suite: one
// transaction per node still populates every mesh row with traffic and
// pushes sharer sets past the first 64-bit word.
func big256Workload() *Profile { return MustWorkload("intruder").WithTxPerCPU(1) }

// TestSharded256TraceByteIdentical extends the byte-identity contract to
// the 256-node configuration: the multi-word sharer sets, 16x16 routing,
// and four-row shard bands must not move a single event.
func TestSharded256TraceByteIdentical(t *testing.T) {
	wl := big256Workload()
	wantRes, wantTrace, err := CaptureEvents(big256Config(), wl)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	var wantBuf bytes.Buffer
	if err := wantTrace.Save(&wantBuf); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		gotRes, gotTrace := shardedCapture(t, big256Config(), wl, shards)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("shards=%d: Result differs from serial", shards)
		}
		var gotBuf bytes.Buffer
		if err := gotTrace.Save(&gotBuf); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
			continue
		}
		if d, ok := FirstDivergence(wantTrace, gotTrace); ok {
			t.Errorf("shards=%d: trace differs (A=serial, B=sharded): %s",
				shards, FormatDivergence(wantTrace, gotTrace, d))
		} else {
			t.Errorf("shards=%d: trace bytes differ but events identical (line-table or header mismatch)", shards)
		}
	}
}

// renderBig256 digests a 256-node Result into the golden's stable text:
// the headline counters plus order-sensitive checksums of the per-node
// tallies, so a silent change anywhere in the run shows as a diff without
// committing 256-entry tables.
func renderBig256(r *Result) string {
	var hc, ha uint64
	for _, v := range r.PerNodeCommits {
		hc = hc*1099511628211 + uint64(v)
	}
	for _, v := range r.PerNodeAborts {
		ha = ha*1099511628211 + uint64(v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "big256 intruder/PUNO 16x16\n")
	fmt.Fprintf(&b, "cycles=%d commits=%d aborts=%d nacks=%d retries=%d\n",
		r.Cycles, r.Commits, r.Aborts, r.Nacks, r.Retries)
	fmt.Fprintf(&b, "dir: txgetx=%d unicasts=%d multicast_fwds=%d mispredictions=%d busy=%d\n",
		r.DirTxGETXServices, r.DirUnicasts, r.DirMulticastFwds, r.Mispredictions, r.DirBusyAll)
	fmt.Fprintf(&b, "net: msgs=%v latency=%d queueing=%d traversals=%d\n",
		r.Net.Messages, r.Net.TotalLatency, r.Net.QueueingDelay, r.Net.TotalTraversals())
	fmt.Fprintf(&b, "pernode: commits=%#x aborts=%#x\n", hc, ha)
	return b.String()
}

// TestBig256Golden pins the 256-node run's measurements under testdata/
// and requires the 4-shard coordinator to reproduce them exactly.
func TestBig256Golden(t *testing.T) {
	serial, err := Run(big256Config(), big256Workload())
	if err != nil {
		t.Fatal(err)
	}
	got := renderBig256(serial)
	compareGolden(t, "big256_golden.txt", got)
	sharded, _ := shardedCapture(t, big256Config(), big256Workload(), 4)
	if sgot := renderBig256(sharded); sgot != got {
		t.Errorf("sharded 256-node digest differs from serial:\n--- sharded ---\n%s--- serial ---\n%s", sgot, got)
	}
}
