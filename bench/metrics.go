package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// metricDef describes one metric. The end-to-end list and the per-layer
// list below are the benchmark's definition; BENCHMARK.json at the repo
// root repeats name/unit/better(/bound) in the schema the acceptance driver
// reads, and TestBenchmarkJSONMatchesDefs keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the reference median it may worsen by

	// Per-layer only.
	Kind  metricKind
	Moves string // the end-to-end metric, and workload, this one should move
}

// layer is the metric's module: the prefix before the first dot.
func (d metricDef) layer() string {
	if i := strings.IndexByte(d.Name, '.'); i > 0 {
		return d.Name[:i]
	}
	return ""
}

// metricKind says where a per-layer number comes from, which decides how
// two result sets compare it.
type metricKind string

const (
	// kindCount: read from Result / Engine / Backing for one pass of the
	// workload's specs. Simulated, so it repeats exactly for a fixed seed;
	// the compare tool demands equality.
	kindCount metricKind = "count"
	// kindTally: a service counter summed over the timed window; scales
	// with how many ops the window fit, so it is shown, not compared.
	kindTally metricKind = "tally"
	// kindSpan: host time between two calls into a layer, from the traced
	// window (median over its spans).
	kindSpan metricKind = "span"
	// kindKernel: host time per op of a loop that drives one layer's
	// exported API alone, for a fixed op count.
	kindKernel metricKind = "kernel"
	// kindDerived: arithmetic over the above (shares, ratios).
	kindDerived metricKind = "derived"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is what a user of the simulator, the sweep runner or the service
// sees. Every workload reports every one of them (the driver's contract),
// which is why the issue's sharded_ms_p50 and pdes_speedup, which only
// sim_big64 could fill, are the per-layer pdes.run_ms and pdes.speedup of
// its traced run, and why its two must-be-zero figures (fail_share, stats_digest_changes) are
// carried by the result line's correct/attempted/failed instead.
//
// The bounds are as wide as the schema allows because the host is that
// noisy (see gauge.go): bench/results/spread.txt has each metric's measured
// run-to-run spread next to its bound. The issue's 10-15% would sit inside a
// busy hour's noise.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "sim_cycles_per_host_s", Unit: "cycles/s", Better: "higher", Bound: 0.25},
	{Name: "sim_commits_per_host_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

const (
	movesHC    = "op_ms_p50, sim_cycles_per_host_s on sim_hc16 and sim_big64; small on sim_lc16; none on serve_warm"
	movesLC    = "op_ms_p50, sim_commits_per_host_s on sim_lc16; small on sim_hc16"
	movesSweep = "ops_per_s, peak_rss_mb on sweep_par; negligible on sim_big64"
	movesPDES  = "pdes.speedup on sim_big64's traced run; no end-to-end metric (the 4-shard leg is probed, not part of the op)"
	movesCold  = "op_ms_p50, ops_per_s on serve_cold"
	movesWarm  = "op_ms_p50, op_ms_p90 on serve_warm"
	movesModel = "none by itself: moves only when the model changes; then compare machine.ns_per_event"
)

// perLayer is emitted by the traced run only. A metric whose layer a
// workload never enters reads 0 there (pdes.* outside sim_big64, serve.*
// outside the serve workloads, …): the driver wants every name on every
// workload, and "no time spent, nothing counted" is what 0 says.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "sim.kernel_ns_per_event", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesHC},
	{Name: "sim.kernel_far_ns_per_event", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesHC},
	{Name: "sim.share_est", Unit: "share", Better: "lower", Kind: kindDerived, Moves: movesHC},

	{Name: "noc.messages", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "noc.traversals", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "noc.kernel_ns_per_send", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesHC},
	{Name: "noc.kernel64_ns_per_send", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: "op_ms_p50 on sim_big64"},
	{Name: "noc.share_est", Unit: "share", Better: "lower", Kind: kindDerived, Moves: movesHC},

	{Name: "cache.kernel_ns_per_access", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesLC},
	{Name: "cache.kernel_ns_per_insert_evict", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesLC},

	{Name: "mem.lines_touched", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "mem.kernel_ns_per_intern", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesLC},
	{Name: "mem.kernel_ns_per_word", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesLC},

	{Name: "htm.commits", Unit: "count", Better: "higher", Kind: kindCount, Moves: movesModel},
	{Name: "htm.aborts", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "htm.commit_ratio", Unit: "share", Better: "higher", Kind: kindCount, Moves: movesModel},
	{Name: "htm.false_abort_share", Unit: "share", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "htm.good_cycle_share", Unit: "share", Better: "higher", Kind: kindCount, Moves: movesModel},
	{Name: "htm.kernel_ns_per_tx", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesLC},
	{Name: "htm.kernel_ns_per_abort", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesHC},
	{Name: "htm.kernel_sig_ns_per_op", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: "none: signatures are off in every workload's Config"},

	{Name: "coherence.requests", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.txgetx_services", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.dir_busy_cycles", Unit: "cycles", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.nacks", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.retries", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.unicasts", Unit: "count", Better: "higher", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.multicast_fwds", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.mispredictions", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.unicast_hit_ratio", Unit: "share", Better: "higher", Kind: kindCount, Moves: movesModel},
	{Name: "coherence.kernel_ns_per_request", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesHC},
	{Name: "coherence.share_est", Unit: "share", Better: "lower", Kind: kindDerived, Moves: movesHC},

	{Name: "stamp.tx_generated", Unit: "count", Better: "higher", Kind: kindCount, Moves: movesModel},
	{Name: "stamp.kernel_ns_per_tx", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesLC},
	{Name: "stamp.share_est", Unit: "share", Better: "lower", Kind: kindDerived, Moves: movesLC},

	{Name: "machine.new_ms", Unit: "ms", Better: "lower", Kind: kindSpan, Moves: "setup_s everywhere; op_ms_p50 on sweep_par (every sweep starts W cold machines)"},
	{Name: "machine.reset_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: movesSweep},
	{Name: "machine.run_ms", Unit: "ms", Better: "lower", Kind: kindSpan, Moves: "op_ms_p50 on every sim workload and serve_cold; none on serve_warm"},
	{Name: "machine.clone_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: movesSweep},
	{Name: "machine.encode_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: movesCold},
	{Name: "machine.decode_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: "none end to end (clients decode); disk-tier reloads in a later issue"},
	{Name: "machine.result_bytes", Unit: "bytes", Better: "lower", Kind: kindCount, Moves: movesCold},
	{Name: "machine.ns_per_event", Unit: "ns", Better: "lower", Kind: kindDerived, Moves: "op_ms_p50 on every sim workload; the figure to compare across a model change"},
	{Name: "machine.ns_per_sim_cycle", Unit: "ns", Better: "lower", Kind: kindDerived, Moves: "sim_cycles_per_host_s on every sim workload"},
	{Name: "machine.allocs_per_run", Unit: "count", Better: "lower", Kind: kindSpan, Moves: movesSweep},
	{Name: "machine.bytes_per_run", Unit: "bytes", Better: "lower", Kind: kindSpan, Moves: movesSweep},
	{Name: "machine.residual_share_est", Unit: "share", Better: "lower", Kind: kindDerived, Moves: movesLC},

	{Name: "pdes.run_ms", Unit: "ms", Better: "lower", Kind: kindSpan, Moves: movesPDES},
	{Name: "pdes.reset_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: movesPDES},
	{Name: "pdes.cpu_s_per_run", Unit: "s", Better: "lower", Kind: kindSpan, Moves: movesPDES},
	{Name: "pdes.cpu_util", Unit: "share", Better: "higher", Kind: kindDerived, Moves: movesPDES},
	{Name: "pdes.allocs_per_run", Unit: "count", Better: "lower", Kind: kindSpan, Moves: movesPDES},
	{Name: "pdes.speedup", Unit: "ratio", Better: "higher", Kind: kindDerived, Moves: "none: serial ÷ 4-shard host time of one spec on sim_big64 (base: the serial leg), the figure PDES is kept or deleted on"},

	{Name: "runner.workers", Unit: "count", Better: "higher", Kind: kindTally, Moves: movesSweep},
	{Name: "runner.cpu_util", Unit: "share", Better: "higher", Kind: kindDerived, Moves: movesSweep},
	{Name: "runner.map_overhead_us", Unit: "us", Better: "lower", Kind: kindKernel, Moves: movesSweep},

	{Name: "trace.events", Unit: "count", Better: "lower", Kind: kindCount, Moves: movesModel},
	{Name: "trace.capture_overhead_ratio", Unit: "ratio", Better: "lower", Kind: kindDerived, Moves: "none: no workload installs an EventSink"},
	{Name: "trace.encode_ns_per_event", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: "none: no workload saves a punoevt/1 trace"},

	{Name: "serve.buildkey_us", Unit: "us", Better: "lower", Kind: kindKernel, Moves: movesWarm},
	{Name: "serve.cache_get_ns", Unit: "ns", Better: "lower", Kind: kindKernel, Moves: movesWarm},
	{Name: "serve.cache_put_us", Unit: "us", Better: "lower", Kind: kindKernel, Moves: movesCold},
	{Name: "serve.submit_hit_us", Unit: "us", Better: "lower", Kind: kindKernel, Moves: movesWarm},
	{Name: "serve.submit_miss_ms", Unit: "ms", Better: "lower", Kind: kindKernel, Moves: movesCold},
	{Name: "serve.allocs_per_hit", Unit: "count", Better: "lower", Kind: kindKernel, Moves: movesWarm},
	{Name: "serve.http_post_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: "op_ms_p50 on serve_warm (hit) and serve_cold (miss)"},
	{Name: "serve.http_wait_ms", Unit: "ms", Better: "lower", Kind: kindSpan, Moves: movesCold},
	{Name: "serve.http_fetch_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: "op_ms_p50 on both serve workloads"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Kind: kindDerived, Moves: movesWarm},
	{Name: "serve.http_p99_ms", Unit: "ms", Better: "lower", Kind: kindSpan, Moves: "op_ms_p90 on both serve workloads"},
	{Name: "serve.runs", Unit: "count", Better: "lower", Kind: kindTally, Moves: "flat across serve_warm's window; one per op on serve_cold"},
	{Name: "serve.submitted", Unit: "count", Better: "higher", Kind: kindTally, Moves: "ops_per_s on both serve workloads"},
	{Name: "serve.collapsed", Unit: "count", Better: "higher", Kind: kindTally, Moves: "none in the window (only the set-up burst collapses)"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Kind: kindTally, Moves: movesWarm},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower", Kind: kindTally, Moves: movesCold},
	{Name: "serve.hit_ratio", Unit: "share", Better: "higher", Kind: kindDerived, Moves: "~1 on serve_warm, ~2/3 on serve_cold (a miss at submit, then two reads of the fresh artifact)"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower", Kind: kindTally, Moves: "failed ops on serve_cold"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Kind: kindDerived, Moves: "none: traced ÷ untraced op_ms_p50 inside the traced run (base: untraced)"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "higher", Kind: kindDerived, Moves: "none: the host, not the program; the spans and kernels of a traced run are unscaled host time, this is the factor to scale them by"},
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadBenchSpec reads BENCHMARK.json from path, or — when path is empty —
// from the working directory or its parent (the benchmark runs from the
// repo root; its tests run from bench/).
func loadBenchSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var raw []byte
	var err error
	for _, p := range candidates {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// result is the last line of a run's standard output, with exactly the keys
// the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run (one workload, one seed, traced or not)
// reports: the result line plus what the result-set files and the compare
// tool need.
type record struct {
	result

	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Samples   int      `json:"samples"`              // timed ops behind op_ms_p50/p90
	SimDigest string   `json:"sim_digest,omitempty"` // SHA-256 over the reference artifacts of the run's inputs
	Notes     []string `json:"notes,omitempty"`

	HostSpeed float64 `json:"host_speed"` // the timed window's hostSpeed
}

func (r *record) resultLine() string {
	b, err := json.Marshal(r.result)
	if err != nil {
		panic(err) // finite floats and strings only; checkEmitted ran first
	}
	return string(b)
}

// resultSet is what `-out` writes and `-compare` reads.
type resultSet struct {
	Host    hostInfo `json:"host"`
	Records []record `json:"records"`
}
