package machine

// Protocol-edge regression tests: the races and recovery paths that were
// sources of bugs during bring-up, plus continuous invariant checking
// while a contended run is in flight.

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// TestInvariantsHoldMidRun checks the SWMR and directory-consistency
// invariants repeatedly *during* a heavily contended run, not just at the
// end — transient protocol states must never be visible as stable
// violations between events.
func TestInvariantsHoldMidRun(t *testing.T) {
	for _, s := range []Scheme{SchemeBaseline, SchemePUNO, SchemePUNOPush} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			wl := counterWorkload{name: "inv", txPerCPU: 10, counters: 4, incrsPer: 2, think: 10}
			cfg := smallConfig(s, 21)
			m, err := New(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			checks := 0
			var tick func()
			tick = func() {
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("invariant violated at cycle %d: %v", m.eng.Now(), err)
				}
				checks++
				if m.active > 0 {
					m.eng.After(500, tick)
				}
			}
			m.eng.After(500, tick)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if checks < 10 {
				t.Fatalf("only %d mid-run checks executed", checks)
			}
		})
	}
}

// TestWritebackRaceServed exercises the PUTX/forward race: a node evicts a
// Modified line while another node's request for it is being forwarded;
// the retained wbWait copy must serve the forward (with the directory's
// WBData for reads) and the system must stay consistent.
func TestWritebackRaceServed(t *testing.T) {
	// Node 0 writes many lines in one tx (they become unpinned M at
	// commit), then thrashes its cache so the M lines get evicted while
	// node 1 concurrently reads them — steady PUTX/FwdGETS traffic.
	wl := countIncrs(wbRaceWorkload{})
	cfg := smallConfig(SchemeBaseline, 3)
	var buf probe.Buffer
	cfg.EventSink = &buf
	m, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if putxSends(buf.Events()) == 0 {
		t.Fatal("workload produced no writebacks; race path not exercised")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every increment by node 0's committed txs must be readable.
	wl.check(t, m)
}

type wbRaceWorkload struct{}

func (wbRaceWorkload) Name() string         { return "wbrace" }
func (wbRaceWorkload) HighContention() bool { return false }

func (wbRaceWorkload) Program(node int, _ *sim.RNG) Program {
	shared := func(i int) mem.Addr { return mem.Line(uint64(i) * mem.LineBytes).Word(0) }
	switch node {
	case 0:
		// Writer: increment shared lines, then thrash private lines that
		// alias the same cache sets to force evictions of the shared M
		// lines.
		n := 0
		return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
			if n >= 25 {
				return TxInstance{}, false
			}
			n++
			var ops []Op
			ops = append(ops, Op{Kind: OpIncr, Addr: shared(r.Intn(8))})
			for w := 0; w < 6; w++ {
				// Same sets as lines 0..7: stride of 128 lines (the L1 has
				// 128 sets); six stripes overflow the 4 ways and force
				// Modified evictions of earlier transactions' lines.
				alias := mem.Line(uint64(128*(1+r.Intn(6))+r.Intn(8)) * mem.LineBytes)
				ops = append(ops, Op{Kind: OpWrite, Addr: alias.Word(0), Value: 1})
			}
			return TxInstance{StaticID: 50, Ops: ops, ThinkCycles: 20}, true
		})
	case 1, 2, 3:
		// Readers keep pulling the shared lines away from the writer.
		n := 0
		return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
			if n >= 25 {
				return TxInstance{}, false
			}
			n++
			var ops []Op
			for i := 0; i < 8; i++ {
				ops = append(ops, Op{Kind: OpRead, Addr: shared(i)})
			}
			return TxInstance{StaticID: 51, Ops: ops, ThinkCycles: 30}, true
		})
	default:
		return &SliceProgram{}
	}
}

// TestUpgradeHazardRecovered: a dataless upgrade whose shared copy is
// stolen mid-flight must refetch rather than install garbage. The counter
// workload under heavy contention hits this path constantly; this test
// additionally asserts the per-word values stay exact.
func TestUpgradeHazardRecovered(t *testing.T) {
	wl := countIncrs(counterWorkload{name: "hazard", txPerCPU: 25, counters: 2, incrsPer: 1, think: 0})
	m, res := runWorkload(t, smallConfig(SchemeBaseline, 17), wl)
	if res.Nacks == 0 {
		t.Fatal("no contention generated; hazard path not exercised")
	}
	wl.check(t, m)
}

// TestWakeupIgnoredWhenStale: wakeups arriving while a node is not backing
// off on that line must be dropped harmlessly.
func TestWakeupIgnoredWhenStale(t *testing.T) {
	wl := countIncrs(counterWorkload{name: "stalewake", txPerCPU: 10, counters: 2, incrsPer: 2, think: 5})
	cfg := smallConfig(SchemePUNOPush, 29)
	m, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 160 {
		t.Fatalf("commits = %d", res.Commits)
	}
	wl.check(t, m)
}

// TestPerNodeCountsSumToTotals: the per-node breakdowns must reconcile
// with the aggregate counters.
func TestPerNodeCountsSumToTotals(t *testing.T) {
	wl := counterWorkload{name: "sums", txPerCPU: 12, counters: 4, incrsPer: 2, think: 10}
	_, res := runWorkload(t, smallConfig(SchemeBaseline, 41), wl)
	var commits, aborts uint64
	for _, c := range res.PerNodeCommits {
		commits += c
	}
	for _, a := range res.PerNodeAborts {
		aborts += a
	}
	if commits != res.Commits || aborts != res.Aborts {
		t.Fatalf("per-node sums %d/%d != totals %d/%d", commits, aborts, res.Commits, res.Aborts)
	}
	var causes uint64
	for _, c := range res.AbortsByCause {
		causes += c
	}
	if causes != res.Aborts {
		t.Fatalf("cause sum %d != aborts %d", causes, res.Aborts)
	}
}

// TestOutcomeTaxonomyCoversAllAccesses: every classified transactional
// write access lands in exactly one Fig. 2 bucket.
func TestOutcomeTaxonomyCoversAllAccesses(t *testing.T) {
	wl := readMostlyWorkload{txPerCPU: 10, readLines: 16}
	_, res := runWorkload(t, smallConfig(SchemeBaseline, 43), wl)
	var sum uint64
	for _, c := range res.GETXOutcomes {
		sum += c
	}
	if sum != res.TxGETXAccesses {
		t.Fatalf("outcome sum %d != accesses %d", sum, res.TxGETXAccesses)
	}
	if res.TxGETXAccesses == 0 {
		t.Fatal("no accesses classified")
	}
}
