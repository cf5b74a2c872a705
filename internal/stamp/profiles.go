package stamp

import (
	"fmt"
	"sort"
)

// The eight STAMP profiles. Region sizes, set sizes and compute lengths
// are calibrated against the paper's Table I (baseline abort rate) and
// Fig. 2 (false-aborting fraction); the calibration history is recorded in
// EXPERIMENTS.md. Static IDs are globally unique so per-node predictor
// tables can never alias across classes.

// Bayes models Bayesian network structure learning: few, very long
// transactions that read large graph fragments and update several of the
// nodes they read. The paper reports a 97.1% baseline abort rate — the
// second most contended workload.
func Bayes() *Profile {
	return &Profile{
		name: "bayes", high: true, txPerCPU: 20, PaperAbortRate: 0.971,
		classes: []Class{
			{StaticID: 100, Weight: 3, RegionLines: 128, ReadsMin: 16, ReadsMax: 40,
				WritesMin: 1, WritesMax: 3, WritesFromReads: true,
				ComputePerRead: 4, BodyCompute: 3000, Think: 400},
			{StaticID: 101, Weight: 2, RegionLines: 128, ReadsMin: 8, ReadsMax: 20,
				WritesMin: 1, WritesMax: 3, WritesFromReads: true,
				ComputePerRead: 3, BodyCompute: 1100, Think: 300},
			{StaticID: 102, Weight: 1, RegionLines: 128, ReadsMin: 4, ReadsMax: 10,
				WritesMin: 1, WritesMax: 2, WritesFromReads: true,
				ComputePerRead: 1, BodyCompute: 500, Think: 150},
		},
	}
}

// Intruder models signature-based network intrusion detection: short
// transactions hammering shared work queues plus medium dictionary
// updates. Paper baseline abort rate: 77.6%.
func Intruder() *Profile {
	return &Profile{
		name: "intruder", high: true, txPerCPU: 60, PaperAbortRate: 0.776,
		classes: []Class{
			// Packet dequeue: the classic hot-spot queue head.
			{StaticID: 110, Weight: 2, RegionLines: 16, ReadsMin: 2, ReadsMax: 4,
				WritesMin: 1, WritesMax: 1, HotLines: 4,
				ComputePerRead: 2, BodyCompute: 60, Think: 60},
			// Fragment reassembly in a shared dictionary.
			{StaticID: 111, Weight: 3, RegionBase: 0x1000, RegionLines: 112,
				ReadsMin: 10, ReadsMax: 22, WritesMin: 3, WritesMax: 4,
				WritesFromReads: true, ComputePerRead: 2, BodyCompute: 550, Think: 40},
			// Detection pass: read-mostly scan.
			{StaticID: 112, Weight: 4, RegionBase: 0x1000, RegionLines: 112,
				ReadsMin: 16, ReadsMax: 32, WritesMin: 0, WritesMax: 1,
				WritesFromReads: true, ComputePerRead: 1, BodyCompute: 300, Think: 50},
		},
	}
}

// Labyrinth models multi-path maze routing: every transaction copies the
// whole grid into its read set, computes a path, and writes a handful of
// grid cells. The paper's most contended workload (98.6% abort rate) and
// its directory-blocking case study (Sec. IV-D).
func Labyrinth() *Profile {
	return &Profile{
		name: "labyrinth", high: true, txPerCPU: 12, PaperAbortRate: 0.986,
		classes: []Class{
			{StaticID: 120, Weight: 1, RegionLines: 96, ReadWholeRegion: true,
				WritesMin: 4, WritesMax: 8, ComputePerRead: 1,
				BodyCompute: 900, Think: 120},
		},
	}
}

// Yada models Delaunay mesh refinement: medium transactions over a large
// triangle cavity structure. Paper baseline abort rate: 47.9%.
func Yada() *Profile {
	return &Profile{
		name: "yada", high: true, txPerCPU: 50, PaperAbortRate: 0.479,
		classes: []Class{
			{StaticID: 130, Weight: 3, RegionLines: 448, ReadsMin: 14, ReadsMax: 28,
				WritesMin: 2, WritesMax: 4, WritesFromReads: true,
				ComputePerRead: 2, BodyCompute: 500, Think: 150},
			{StaticID: 131, Weight: 1, RegionLines: 448, ReadsMin: 6, ReadsMax: 12,
				WritesMin: 1, WritesMax: 2, WritesFromReads: true,
				ComputePerRead: 2, BodyCompute: 250, Think: 100},
		},
	}
}

// Genome models gene sequencing via hash-table segment insertion: small
// transactions scattered across a large table. Paper baseline abort rate:
// 1.3%.
func Genome() *Profile {
	return &Profile{
		name: "genome", high: false, txPerCPU: 150, PaperAbortRate: 0.013,
		classes: []Class{
			{StaticID: 140, Weight: 3, RegionLines: 4096, ReadsMin: 4, ReadsMax: 8,
				WritesMin: 1, WritesMax: 2, WritesFromReads: true,
				ComputePerRead: 1, BodyCompute: 80, Think: 40, PrivateLines: 2},
			{StaticID: 141, Weight: 1, RegionLines: 4096, ReadsMin: 8, ReadsMax: 16,
				WritesMin: 0, WritesMax: 1, WritesFromReads: true,
				ComputePerRead: 1, BodyCompute: 120, Think: 60},
		},
	}
}

// Kmeans models cluster-centre updates: very short read-modify-write
// transactions on a moderately sized centre table plus private point
// data. Paper baseline abort rate: 7.4%; the workload where RMW-Pred
// shines.
func Kmeans() *Profile {
	return &Profile{
		name: "kmeans", high: false, txPerCPU: 200, PaperAbortRate: 0.074,
		classes: []Class{
			{StaticID: 150, Weight: 1, RegionLines: 12, WritesMin: 1, WritesMax: 2,
				RMW: true, BodyCompute: 60, Think: 40, PrivateLines: 3},
		},
	}
}

// SSCA2 models graph kernel updates: tiny read-modify-write transactions
// scattered over a huge adjacency structure. Paper baseline abort rate:
// 0.3% — the least contended workload.
func SSCA2() *Profile {
	return &Profile{
		name: "ssca2", high: false, txPerCPU: 250, PaperAbortRate: 0.003,
		classes: []Class{
			{StaticID: 160, Weight: 1, RegionLines: 3072, WritesMin: 1, WritesMax: 2,
				RMW: true, BodyCompute: 30, Think: 20, PrivateLines: 1},
		},
	}
}

// Vacation models a travel-reservation database: medium transactions over
// shared reservation trees. Paper baseline abort rate: 38%.
func Vacation() *Profile {
	return &Profile{
		name: "vacation", high: false, txPerCPU: 70, PaperAbortRate: 0.38,
		classes: []Class{
			{StaticID: 170, Weight: 3, RegionLines: 640, ReadsMin: 12, ReadsMax: 24,
				WritesMin: 2, WritesMax: 4, WritesFromReads: true,
				ComputePerRead: 2, BodyCompute: 350, Think: 80},
			{StaticID: 171, Weight: 1, RegionLines: 768, ReadsMin: 20, ReadsMax: 40,
				WritesMin: 1, WritesMax: 2, WritesFromReads: true,
				ComputePerRead: 1, BodyCompute: 300, Think: 100},
		},
	}
}

// catalog is the one list of the eight profiles, in the paper's Table I
// order: All builds every entry, ByName only the entry it names. Each
// name is its constructor's Profile.Name (TestRegistry).
var catalog = []struct {
	name  string
	build func() *Profile
}{
	{"bayes", Bayes}, {"intruder", Intruder}, {"labyrinth", Labyrinth}, {"yada", Yada},
	{"genome", Genome}, {"kmeans", Kmeans}, {"ssca2", SSCA2}, {"vacation", Vacation},
}

// All returns the eight profiles in the paper's Table I order.
func All() []*Profile {
	out := make([]*Profile, len(catalog))
	for i, e := range catalog {
		out[i] = e.build()
	}
	return out
}

// HighContention returns the paper's high-contention subset.
func HighContention() []*Profile {
	var out []*Profile
	for _, p := range All() {
		if p.HighContention() {
			out = append(out, p)
		}
	}
	return out
}

// ByName returns a fresh copy of the named profile (PaperAbortRate is the
// caller's to change), or an error listing the valid names.
func ByName(name string) (*Profile, error) {
	for _, e := range catalog {
		if e.name == name {
			return e.build(), nil
		}
	}
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("stamp: unknown workload %q (have %v)", name, names)
}
