package machine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// counterWorkload: every node increments a set of shared counters repeatedly
// — the canonical serializability stress (final value must equal committed
// increments).
type counterWorkload struct {
	name     string
	txPerCPU int
	counters int // number of distinct counter words
	incrsPer int // increments per transaction
	think    sim.Time
}

func (w counterWorkload) Name() string         { return w.name }
func (w counterWorkload) HighContention() bool { return true }

func (w counterWorkload) Program(nodeID int, rng *sim.RNG) Program {
	count := 0
	return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
		if count >= w.txPerCPU {
			return TxInstance{}, false
		}
		count++
		ops := make([]Op, 0, w.incrsPer+1)
		for i := 0; i < w.incrsPer; i++ {
			c := r.Intn(w.counters)
			addr := mem.Line(uint64(c) * mem.LineBytes).Word(0)
			ops = append(ops, Op{Kind: OpIncr, Addr: addr})
		}
		ops = append(ops, Op{Kind: OpCompute, Cycles: 20})
		return TxInstance{StaticID: 1, Ops: ops, ThinkCycles: w.think}, true
	})
}

// disjointWorkload: each node works on private lines — zero conflicts.
type disjointWorkload struct{ txPerCPU int }

func (disjointWorkload) Name() string         { return "disjoint" }
func (disjointWorkload) HighContention() bool { return false }

func (w disjointWorkload) Program(nodeID int, rng *sim.RNG) Program {
	count := 0
	base := mem.Line(uint64(nodeID+1) * 0x10000)
	return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
		if count >= w.txPerCPU {
			return TxInstance{}, false
		}
		count++
		var ops []Op
		for i := 0; i < 4; i++ {
			l := mem.Line(uint64(base) + uint64(i)*mem.LineBytes)
			ops = append(ops, Op{Kind: OpRead, Addr: l.Word(0)})
			ops = append(ops, Op{Kind: OpWrite, Addr: l.Word(1), Value: uint64(count)})
		}
		return TxInstance{StaticID: 2, Ops: ops, ThinkCycles: 10}, true
	})
}

func smallConfig(s Scheme, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Scheme = s
	cfg.Seed = seed
	cfg.MaxCycles = 50_000_000
	return cfg
}

func runWorkload(t testing.TB, cfg Config, wl Workload) (*Machine, *Result) {
	t.Helper()
	m, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestDisjointWorkloadNoConflicts(t *testing.T) {
	m, res := runWorkload(t, smallConfig(SchemeBaseline, 1), disjointWorkload{txPerCPU: 10})
	if res.Commits != 160 {
		t.Fatalf("commits = %d, want 160", res.Commits)
	}
	if res.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0 on disjoint data", res.Aborts)
	}
	if res.Nacks != 0 {
		t.Fatalf("nacks = %d, want 0 on disjoint data", res.Nacks)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointWritesLandInMemory(t *testing.T) {
	m, _ := runWorkload(t, smallConfig(SchemeBaseline, 1), disjointWorkload{txPerCPU: 10})
	m.DrainCaches()
	for node := 0; node < 16; node++ {
		base := mem.Line(uint64(node+1) * 0x10000)
		for i := 0; i < 4; i++ {
			l := mem.Line(uint64(base) + uint64(i)*mem.LineBytes)
			if v := m.Backing().LoadWord(l.Word(1)); v != 10 {
				t.Fatalf("node %d line %d final value %d, want 10", node, i, v)
			}
		}
	}
}

// TestCounterSerializability: on the shared-counter workload, final memory
// equals the committed increments (counted by incrCounter, outside the
// machine) for every scheme, with exact read/write sets and with 1024-bit
// signatures, at seeds 1-3. The last three rows are single points at their
// own seed and workload shape.
func TestCounterSerializability(t *testing.T) {
	type row struct {
		scheme  Scheme
		sigBits int
		seed    uint64
		wl      counterWorkload
	}
	matrix := counterWorkload{name: "counters", txPerCPU: 20, counters: 8, incrsPer: 2, think: 30}
	var rows []row
	for _, s := range AllSchemes() {
		for _, bits := range []int{0, 1024} {
			for seed := uint64(1); seed <= 3; seed++ {
				rows = append(rows, row{s, bits, seed, matrix})
			}
		}
	}
	rows = append(rows,
		row{SchemeBaseline, 1024, 17, counterWorkload{name: "sig", txPerCPU: 10, counters: 4, incrsPer: 2, think: 10}},
		row{SchemeATS, 0, 11, counterWorkload{name: "atsser", txPerCPU: 15, counters: 4, incrsPer: 2, think: 10}},
		row{SchemePUNOPush, 0, 13, counterWorkload{name: "push", txPerCPU: 15, counters: 4, incrsPer: 2, think: 10}},
	)
	for _, s := range AllSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			for _, r := range rows {
				if r.scheme != s {
					continue
				}
				sets := "exact"
				if r.sigBits > 0 {
					sets = fmt.Sprintf("sig%d", r.sigBits)
				}
				t.Run(fmt.Sprintf("%s-seed%d-tx%d", sets, r.seed, r.wl.txPerCPU), func(t *testing.T) {
					cfg := smallConfig(s, r.seed)
					cfg.SignatureBits = r.sigBits
					wl := countIncrs(r.wl)
					m, res := runWorkload(t, cfg, wl)
					commits := uint64(cfg.Nodes * r.wl.txPerCPU)
					if res.Commits != commits {
						t.Fatalf("commits = %d, want %d", res.Commits, commits)
					}
					if got, want := wl.check(t, m), commits*uint64(r.wl.incrsPer); got != want {
						t.Fatalf("committed increments = %d, want %d", got, want)
					}
					if err := m.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

func TestContentionCausesAborts(t *testing.T) {
	wl := counterWorkload{name: "hot", txPerCPU: 20, counters: 2, incrsPer: 2, think: 0}
	_, res := runWorkload(t, smallConfig(SchemeBaseline, 7), wl)
	if res.Aborts == 0 {
		t.Fatal("expected aborts under heavy contention")
	}
	if res.Nacks == 0 {
		t.Fatal("expected NACKs under heavy contention")
	}
	if res.TxGETXIssued == 0 {
		t.Fatal("no transactional GETX issued")
	}
}

func TestDeterminism(t *testing.T) {
	wl := counterWorkload{name: "det", txPerCPU: 10, counters: 4, incrsPer: 2, think: 10}
	_, r1 := runWorkload(t, smallConfig(SchemeBaseline, 99), wl)
	_, r2 := runWorkload(t, smallConfig(SchemeBaseline, 99), wl)
	if r1.Cycles != r2.Cycles || r1.Aborts != r2.Aborts || r1.Commits != r2.Commits {
		t.Fatalf("same seed diverged: %v/%v/%v vs %v/%v/%v",
			r1.Cycles, r1.Aborts, r1.Commits, r2.Cycles, r2.Aborts, r2.Commits)
	}
	if r1.Net.TotalTraversals() != r2.Net.TotalTraversals() {
		t.Fatal("network traffic diverged between identical runs")
	}
}

func TestSeedsChangeSchedule(t *testing.T) {
	wl := counterWorkload{name: "seeds", txPerCPU: 10, counters: 4, incrsPer: 2, think: 10}
	_, r1 := runWorkload(t, smallConfig(SchemeBaseline, 1), wl)
	_, r2 := runWorkload(t, smallConfig(SchemeBaseline, 2), wl)
	if r1.Cycles == r2.Cycles && r1.Net.TotalTraversals() == r2.Net.TotalTraversals() {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestPUNORunsAndPredicts(t *testing.T) {
	wl := counterWorkload{name: "puno", txPerCPU: 20, counters: 2, incrsPer: 2, think: 0}
	_, res := runWorkload(t, smallConfig(SchemePUNO, 5), wl)
	if res.Commits != 16*20 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if res.DirUnicasts == 0 {
		t.Fatal("PUNO never unicast under contention")
	}
}

func TestReadSharingWorkload(t *testing.T) {
	// All nodes read a common region, one line gets written: the classic
	// false-aborting shape.
	wl := readMostlyWorkload{txPerCPU: 15, readLines: 8}
	_, res := runWorkload(t, smallConfig(SchemeBaseline, 3), wl)
	if res.Commits != 16*15 {
		t.Fatalf("commits = %d, want %d", res.Commits, 16*15)
	}
	if res.GETXOutcomes[OutcomeFalseAbort] == 0 {
		t.Fatal("expected false-aborting GETX requests in a read-sharing workload")
	}
	if res.UnnecessaryAborts() == 0 {
		t.Fatal("false-abort histogram empty")
	}
}

// fig4Workload reproduces the structure of the paper's Fig. 4: most nodes
// run read-only transactions over a shared region; a few writer nodes
// update single lines of it. The writers' multicast GETX requests are the
// false-aborting source; the spared readers can commit.
type fig4Workload struct {
	txPerCPU   int
	sharedArea int // lines in the shared region
	writers    int // nodes 0..writers-1 write; the rest only read
}

func (fig4Workload) Name() string         { return "fig4" }
func (fig4Workload) HighContention() bool { return true }

func (w fig4Workload) Program(nodeID int, rng *sim.RNG) Program {
	count := 0
	return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
		if count >= w.txPerCPU {
			return TxInstance{}, false
		}
		count++
		var ops []Op
		if nodeID < w.writers {
			ops = append(ops, Op{Kind: OpCompute, Cycles: 50})
			victim := r.Intn(w.sharedArea)
			ops = append(ops, Op{Kind: OpIncr, Addr: mem.Line(uint64(victim) * mem.LineBytes).Word(0)})
			return TxInstance{StaticID: 10, Ops: ops, ThinkCycles: 100}, true
		}
		for i := 0; i < w.sharedArea; i++ {
			ops = append(ops, Op{Kind: OpRead, Addr: mem.Line(uint64(i) * mem.LineBytes).Word(0)})
		}
		ops = append(ops, Op{Kind: OpCompute, Cycles: 300})
		return TxInstance{StaticID: 11, Ops: ops, ThinkCycles: 50}, true
	})
}

// readMostlyWorkload reads a shared region then writes one of its lines.
type readMostlyWorkload struct {
	txPerCPU  int
	readLines int
}

func (readMostlyWorkload) Name() string         { return "readmostly" }
func (readMostlyWorkload) HighContention() bool { return true }

func (w readMostlyWorkload) Program(nodeID int, rng *sim.RNG) Program {
	count := 0
	return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
		if count >= w.txPerCPU {
			return TxInstance{}, false
		}
		count++
		var ops []Op
		for i := 0; i < w.readLines; i++ {
			ops = append(ops, Op{Kind: OpRead, Addr: mem.Line(uint64(i) * mem.LineBytes).Word(0)})
		}
		ops = append(ops, Op{Kind: OpCompute, Cycles: 100})
		victim := r.Intn(w.readLines)
		ops = append(ops, Op{Kind: OpIncr, Addr: mem.Line(uint64(victim) * mem.LineBytes).Word(0)})
		return TxInstance{StaticID: 3, Ops: ops, ThinkCycles: 50}, true
	})
}

func TestPUNOReducesFalseAbortsVsBaseline(t *testing.T) {
	// The mechanism claim (Secs. II-C, III-A): predictive unicast and
	// notification prevent the unnecessary aborts caused by NACKed
	// multicast GETX requests, and cut traffic, in the paper's Fig. 4
	// structure (read-only transactions sharing a region, a few writers).
	wl := fig4Workload{txPerCPU: 30, sharedArea: 16, writers: 4}
	_, base := runWorkload(t, smallConfig(SchemeBaseline, 3), wl)
	_, puno := runWorkload(t, smallConfig(SchemePUNO, 3), wl)
	if puno.UnnecessaryAborts() >= base.UnnecessaryAborts()/2 {
		t.Fatalf("PUNO unnecessary aborts %d, want < half of baseline %d",
			puno.UnnecessaryAborts(), base.UnnecessaryAborts())
	}
	if puno.GETXOutcomes[OutcomeFalseAbort] >= base.GETXOutcomes[OutcomeFalseAbort] {
		t.Fatalf("PUNO false-aborting requests %d >= baseline %d",
			puno.GETXOutcomes[OutcomeFalseAbort], base.GETXOutcomes[OutcomeFalseAbort])
	}
	if puno.Net.TotalTraversals() >= base.Net.TotalTraversals() {
		t.Fatalf("PUNO traffic %d >= baseline %d",
			puno.Net.TotalTraversals(), base.Net.TotalTraversals())
	}
	if puno.Cycles >= base.Cycles {
		t.Fatalf("PUNO execution time %d >= baseline %d", puno.Cycles, base.Cycles)
	}
}

func TestWritebacksHappen(t *testing.T) {
	// Touch enough disjoint lines that committed Modified lines get
	// evicted and written back.
	wl := sweepWorkload{txPerCPU: 12, linesPerTx: 64}
	m, _ := runWorkload(t, smallConfig(SchemeBaseline, 11), wl)
	var wb uint64
	for _, d := range m.dirs {
		wb += d.Stats().Writebacks
	}
	if wb == 0 {
		t.Fatal("no PUTX writebacks despite cache-thrashing workload")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// sweepWorkload writes many private lines to force evictions.
type sweepWorkload struct {
	txPerCPU   int
	linesPerTx int
}

func (sweepWorkload) Name() string         { return "sweep" }
func (sweepWorkload) HighContention() bool { return false }

func (w sweepWorkload) Program(nodeID int, rng *sim.RNG) Program {
	count := 0
	return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
		if count >= w.txPerCPU {
			return TxInstance{}, false
		}
		count++
		var ops []Op
		for i := 0; i < w.linesPerTx; i++ {
			// Each tx touches a fresh stripe of private lines.
			l := mem.Line(uint64(nodeID+1)*0x100000 + uint64(count*w.linesPerTx+i)*mem.LineBytes)
			ops = append(ops, Op{Kind: OpWrite, Addr: l.Word(0), Value: 7})
		}
		return TxInstance{StaticID: 4, Ops: ops, ThinkCycles: 5}, true
	})
}

func TestOverflowDetected(t *testing.T) {
	// One transaction pins more lines in a single set than its ways: the
	// machine must fail with a clear error instead of livelocking.
	wl := overflowWorkload{}
	cfg := smallConfig(SchemeBaseline, 1)
	m, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("overflowing transaction did not fail the run")
	}
	if m.Result().AbortsByCause[CauseOverflow] == 0 {
		t.Fatal("overflow aborts not counted")
	}
}

type overflowWorkload struct{}

func (overflowWorkload) Name() string         { return "overflow" }
func (overflowWorkload) HighContention() bool { return false }

func (overflowWorkload) Program(nodeID int, rng *sim.RNG) Program {
	if nodeID != 0 {
		return &SliceProgram{}
	}
	// 6 lines mapping to the same set of a 4-way 128-set L1: stride =
	// 128*64 bytes.
	var ops []Op
	for i := 0; i < 6; i++ {
		ops = append(ops, Op{Kind: OpWrite, Addr: mem.Addr(uint64(i) * 128 * 64), Value: 1})
	}
	return &SliceProgram{Txs: []TxInstance{{StaticID: 9, Ops: ops}}}
}

func TestRMWPredictorTrains(t *testing.T) {
	wl := counterWorkload{name: "rmw", txPerCPU: 15, counters: 4, incrsPer: 2, think: 10}
	m, res := runWorkload(t, smallConfig(SchemeRMWPred, 13), wl)
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	trained := false
	for _, n := range m.nodes {
		if n.rmw != nil && n.rmw.Len() > 0 {
			trained = true
		}
	}
	if !trained {
		t.Fatal("RMW predictor never trained on an increment workload")
	}
}

func TestNotificationsFlowUnderPUNO(t *testing.T) {
	wl := readMostlyWorkload{txPerCPU: 15, readLines: 8}
	_, res := runWorkload(t, smallConfig(SchemePUNO, 21), wl)
	if res.NotifiedBackoffs == 0 {
		t.Fatal("no notification-guided backoffs under PUNO")
	}
}

func TestGDCyclesAccumulate(t *testing.T) {
	wl := counterWorkload{name: "gd", txPerCPU: 10, counters: 2, incrsPer: 2, think: 0}
	_, res := runWorkload(t, smallConfig(SchemeBaseline, 31), wl)
	if res.GoodCycles == 0 {
		t.Fatal("no good transaction cycles recorded")
	}
	if res.Aborts > 0 && res.DiscardedCycles == 0 {
		t.Fatal("aborts occurred but no discarded cycles recorded")
	}
}

func TestMeshMismatchRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 8
	if _, err := New(cfg, disjointWorkload{txPerCPU: 1}); err == nil {
		t.Fatal("mismatched node/mesh config accepted")
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeBaseline: "Baseline", SchemeBackoff: "Backoff",
		SchemeRMWPred: "RMW-Pred", SchemePUNO: "PUNO",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestATSSchemeRunsAndSerializes(t *testing.T) {
	wl := counterWorkload{name: "ats", txPerCPU: 15, counters: 2, incrsPer: 2, think: 0}
	_, base := runWorkload(t, smallConfig(SchemeBaseline, 3), wl)
	_, ats := runWorkload(t, smallConfig(SchemeATS, 3), wl)
	if ats.Commits != base.Commits {
		t.Fatalf("ATS commits %d != baseline %d", ats.Commits, base.Commits)
	}
	// ATS's whole point: far fewer aborts under heavy contention.
	if ats.Aborts >= base.Aborts/2 {
		t.Fatalf("ATS aborts %d, want < half of baseline %d", ats.Aborts, base.Aborts)
	}
}

func TestPUNOPushWakesWaiters(t *testing.T) {
	wl := fig4Workload{txPerCPU: 30, sharedArea: 16, writers: 4}
	_, puno := runWorkload(t, smallConfig(SchemePUNO, 3), wl)
	_, push := runWorkload(t, smallConfig(SchemePUNOPush, 3), wl)
	if push.Commits != puno.Commits {
		t.Fatalf("commits diverged: %d vs %d", push.Commits, puno.Commits)
	}
	// The wakeup extension must preserve PUNO's false-abort suppression.
	if push.UnnecessaryAborts() > 2*puno.UnnecessaryAborts()+8 {
		t.Fatalf("PUNO-Push unnecessary aborts %d far above PUNO %d",
			push.UnnecessaryAborts(), puno.UnnecessaryAborts())
	}
}

// kindCounter is a trace hook in the shape punosim -trace installs: an
// EventSink that looks at each event as it is emitted and keeps nothing but
// a tally per kind.
type kindCounter map[probe.Kind]int

func (k kindCounter) Emit(e probe.Event) { k[e.Kind]++ }

// TestTraceFnObservesWithoutPerturbing: a run with a trace hook installed
// sees every transaction-lifecycle and conflict kind the PUNO machine
// emits, and ends in exactly the result (artifact bytes included) of the
// same run with tracing off — the sink is only told, never consulted for
// behaviour.
func TestTraceFnObservesWithoutPerturbing(t *testing.T) {
	wl := counterWorkload{name: "traced", txPerCPU: 6, counters: 2, incrsPer: 2, think: 0}
	cfg := smallConfig(SchemePUNO, 11)
	_, plain := runWorkload(t, cfg, wl)
	want, err := EncodeResult(plain)
	if err != nil {
		t.Fatal(err)
	}

	kinds := kindCounter{}
	cfg.EventSink = kinds
	_, traced := runWorkload(t, cfg, wl)
	got, err := EncodeResult(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("installing a trace hook changed the run's artifact")
	}
	for _, k := range []probe.Kind{probe.KindSend, probe.KindTxBegin, probe.KindTxCommit, probe.KindTxAbort, probe.KindConflict} {
		if kinds[k] == 0 {
			t.Errorf("traced run emitted no %v event (got %v)", k, kinds)
		}
	}
}

// wakeupCounter counts the PUNO-Push wakeup messages a run sends.
type wakeupCounter struct{ n int }

func (w *wakeupCounter) Emit(e probe.Event) {
	if e.Kind != probe.KindSend {
		return
	}
	if typ, _, _, _ := probe.UnpackSend(e.Arg); coherence.MsgType(typ) == coherence.MsgWakeup {
		w.n++
	}
}

// TestSchemeRows runs one contended workload under every scheme and checks
// which parts of contention management show in the machine it builds and
// the run it makes — a directory predictor, notified polling waits, commit
// wakeups, randomized restart backoff, RMW promotion, ATS serialization —
// against the parts the paper's schemes and the ablations are meant to
// have. A part a scheme lacks must leave the baseline's behaviour: the fixed
// 20-cycle backoff accounts for every polling and restart wait it does not
// change.
func TestSchemeRows(t *testing.T) {
	want := map[Scheme]string{
		SchemeBaseline:    "",
		SchemeBackoff:     "randomRestart",
		SchemeRMWPred:     "rmwPred",
		SchemePUNO:        "predict notify",
		SchemeUnicastOnly: "predict",
		SchemeNotifyOnly:  "notify",
		SchemeATS:         "ats",
		SchemePUNOPush:    "predict notify push",
	}
	wl := readMostlyWorkload{txPerCPU: 15, readLines: 8}
	for _, s := range AllSchemes() {
		t.Run(s.String(), func(t *testing.T) {
			if row := schemeTable[s]; row.notify != (row.maxWait > 0) {
				t.Fatalf("maxWait %d set without notify, or notify without a cap", row.maxWait)
			}
			cfg := smallConfig(s, 21)
			wakeups := &wakeupCounter{}
			cfg.EventSink = wakeups
			m, res := runWorkload(t, cfg, wl)
			if res.Aborts == 0 || res.Retries == 0 {
				t.Fatalf("workload not contended: %d aborts, %d retries", res.Aborts, res.Retries)
			}
			preds, rmws, trained := 0, 0, false
			for i, n := range m.nodes {
				if m.preds[i] != nil {
					preds++
				}
				if n.rmw != nil {
					rmws++
					trained = trained || n.rmw.Len() > 0
				}
			}
			if (preds != 0 && preds != len(m.nodes)) || (rmws != 0 && rmws != len(m.nodes)) {
				t.Fatalf("%d nodes with a predictor, %d with an RMW predictor, of %d", preds, rmws, len(m.nodes))
			}
			fixed := uint64(cm.FixedBackoffCycles)
			var got []string
			for _, part := range []struct {
				name string
				// seen and baseline must disagree: a part shows, or the
				// baseline behaviour it replaces does.
				seen, baseline bool
			}{
				{"predict", preds > 0 && res.DirUnicasts > 0, preds == 0 && res.DirUnicasts == 0},
				{"notify", res.NotifiedBackoffs > 0, res.BackoffCycles == fixed*res.Retries},
				{"push", wakeups.n > 0, wakeups.n == 0},
				{"randomRestart", res.RestartWaitCycle != fixed*res.Aborts, res.RestartWaitCycle == fixed*res.Aborts},
				{"rmwPred", rmws > 0 && trained, rmws == 0},
				{"ats", m.ats.Serialized > 0, m.ats.Serialized == 0},
			} {
				if part.seen == part.baseline {
					t.Errorf("%s: neither the part nor the baseline behaviour shows", part.name)
				}
				if part.seen {
					got = append(got, part.name)
				}
			}
			if g := strings.Join(got, " "); g != want[s] {
				t.Errorf("parts %q, want %q", g, want[s])
			}
		})
	}
}
