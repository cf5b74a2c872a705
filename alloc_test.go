package puno

import "testing"

// warmRunAllocs is what one Arena.Run may allocate on a warm 16-node arena:
// the per-reset rebuild (per node: two RNG forks and the program closure
// with its three scratch buffers) plus Result.Clone — 148 measured for the
// PUNO, Baseline and ATS inputs below and 132 for RMW-Pred on kmeans — with
// headroom for a toolchain that counts a closure differently. It is a
// constant: nothing per event, per message or per transaction may allocate,
// under any scheme, which is what the TxPerCPU comparison below pins. (The
// parent of the commit that added this test spent 24 000-84 000 here,
// scaling with the transaction count; ATS spent 810-1 403 until its begin
// gate stopped taking a closure per attempt.)
const warmRunAllocs = 256

// TestWarmArenaRunAllocs: after two warm-up runs of a spec, re-running it on
// the arena allocates a constant — under warmRunAllocs, and the same number
// at twice the transaction count, give or take what Result.Clone itself adds
// for a differently shaped result.
func TestWarmArenaRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		workload string
		scheme   Scheme
	}{
		{"intruder", SchemePUNO},
		{"vacation", SchemeBaseline},
		{"intruder", SchemeATS},
		{"kmeans", SchemeRMWPred},
	} {
		var base *Profile
		for _, p := range ScaledWorkloads(0.2) {
			if p.Name() == tc.workload {
				base = p
			}
		}
		var allocs, clone [2]float64
		for i, txPer := range []int{base.TxPerCPU(), 2 * base.TxPerCPU()} {
			cfg := DefaultConfig()
			cfg.Scheme = tc.scheme
			cfg.Seed = 7
			sp := RunSpec{Config: cfg, Workload: base.WithTxPerCPU(txPer)}
			a := NewArena()
			var res *Result
			for warm := 0; warm < 2; warm++ {
				var err error
				if res, err = a.Run(sp); err != nil {
					t.Fatal(err)
				}
			}
			clone[i] = testing.AllocsPerRun(5, func() { res.Clone() })
			allocs[i] = testing.AllocsPerRun(3, func() {
				if _, err := a.Run(sp); err != nil {
					t.Fatal(err)
				}
			})
			if allocs[i] > warmRunAllocs {
				t.Errorf("%s/%v TxPerCPU=%d: warm Arena.Run allocates %.0f objects, budget %d",
					tc.workload, tc.scheme, txPer, allocs[i], warmRunAllocs)
			}
		}
		if grew, may := allocs[1]-allocs[0], clone[1]-clone[0]; grew > may {
			t.Errorf("%s/%v: doubling TxPerCPU took a warm run from %.0f to %.0f allocations (Result.Clone accounts for %.0f): something allocates per transaction",
				tc.workload, tc.scheme, allocs[0], allocs[1], may)
		}
	}
}
