package machine

// Protocol-edge regression tests: the races and recovery paths that were
// sources of bugs during bring-up, plus continuous invariant checking
// while a contended run is in flight.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/htm"
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

// TestContendedIncrementsExact: under heavy contention (two counters, no
// think time) the NACK/retry paths run constantly, and every committed
// increment must still land exactly once.
func TestContendedIncrementsExact(t *testing.T) {
	wl := countIncrs(counterWorkload{name: "contended", txPerCPU: 25, counters: 2, incrsPer: 1, think: 0})
	m, res := runWorkload(t, smallConfig(SchemeBaseline, 17), wl)
	if res.Nacks == 0 {
		t.Fatal("no contention generated; NACK path not exercised")
	}
	wl.check(t, m)
}

// TestUpgradeHazardRecovered drives one node's handlers by hand through the
// dataless-upgrade hazard, which no whole run reaches: the node holds a
// line Shared and issues an upgrade (GETX without data), a granted FwdGETX
// from another writer invalidates its copy, and then the directory's
// AckCount(0) completes the upgrade with nothing to install. The node must
// fail the request (UNBLOCK, Success false) and then either retry the
// access as a full fetch, when its transaction is still live, or restart,
// when the transaction aborted while the upgrade was in flight — whether
// the AckCount lands during the rollback or after it.
func TestUpgradeHazardRecovered(t *testing.T) {
	cases := []struct {
		name     string
		abort    bool // abort the transaction after the invalidation
		rollback bool // let the rollback finish before the AckCount lands
	}{
		{"live", false, false},
		{"aborted-mid-rollback", true, false},
		{"aborted-after-rollback", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(smallConfig(SchemeBaseline, 1), disjointWorkload{txPerCPU: 1})
			if err != nil {
				t.Fatal(err)
			}
			sends := captureSends(t, m)
			const writer = 2
			l := mem.Line(7 * mem.LineBytes)
			for h := m.home.Home(l); h == 0 || h == writer; h = m.home.Home(l) {
				l += mem.LineBytes
			}
			home := m.home.Home(l)
			lid := m.it.Intern(l)
			n := m.nodes[0]
			n.l1.InsertID(l, lid, cache.Shared, mem.LineData{})
			n.cur = TxInstance{StaticID: 1, Ops: []Op{{Kind: OpWrite, Addr: l.Word(0), Value: 5}}}
			n.startAttempt(false)
			toHome := func(msg *coherence.Msg) bool { return msg.Src == 0 && msg.Dst == home }
			up := sends.await("GETX", toHome)
			if up.Type != coherence.MsgGETX || up.NeedData || up.Line != l {
				t.Fatalf("upgrade = %+v, want a dataless GETX for %v", up, l)
			}
			n.handleForward(&coherence.Msg{Type: coherence.MsgFwdGETX, Line: l, LID: lid, Src: home, Dst: 0,
				Requester: writer, ReqID: 1, IsWrite: true})
			if n.l1.Lookup(l) != nil {
				t.Fatal("granted FwdGETX left the shared copy in place")
			}
			if tc.abort {
				n.abortTx(CauseTxGETX, false)
			}
			for tc.rollback && n.tx.Status != htm.StatusAborted {
				if !m.eng.Step() {
					t.Fatal("rollback never finished")
				}
			}
			retries := m.res.Retries
			n.handleResponse(&coherence.Msg{Type: coherence.MsgAckCount, Line: l, LID: lid, Src: home, Dst: 0,
				Requester: 0, ReqID: up.ReqID})
			if n.req != nil {
				t.Fatal("AckCount(0) left the upgrade outstanding")
			}
			if n.l1.Lookup(l) != nil {
				t.Fatal("the hazard installed a line it never received")
			}
			if unblock := sends.await("UNBLOCK", toHome); unblock.Type != coherence.MsgUnblock || unblock.Success || unblock.ReqID != up.ReqID {
				t.Fatalf("first send home after AckCount(0) = %+v, want a failed UNBLOCK for ReqID %d", unblock, up.ReqID)
			}
			again := sends.await("retry", toHome)
			if again.Type != coherence.MsgGETX || !again.NeedData || again.Line != l || again.ReqID <= up.ReqID {
				t.Fatalf("retry = %+v, want a full fetch of %v", again, l)
			}
			switch {
			case !tc.abort && (n.tx.Attempts != 1 || m.res.Retries != retries+1):
				t.Fatalf("live hazard: attempts %d, retries +%d; want the access retried in attempt 1",
					n.tx.Attempts, m.res.Retries-retries)
			case tc.abort && (n.tx.Attempts != 2 || !n.tx.Running()):
				t.Fatalf("aborted hazard: attempts %d, status %v; want a restarted attempt 2", n.tx.Attempts, n.tx.Status)
			}
		})
	}
}

// sendLog stands in for the machine's mesh arrival handler in tests that
// drive the node and directory handlers by hand: every message the machine
// sends lands in sent, in arrival order, instead of at its controller.
type sendLog struct {
	t    *testing.T
	m    *Machine
	sent []coherence.Msg
}

func captureSends(t *testing.T, m *Machine) *sendLog {
	l := &sendLog{t: t, m: m}
	m.mesh.Receive(l)
	return l
}

// OnEvent implements sim.Handler for mesh arrivals.
func (l *sendLog) OnEvent(arg any, _ uint64) { l.sent = append(l.sent, *arg.(*coherence.Msg)) }

// await steps the engine until a captured message matches, and takes the
// earliest such one.
func (l *sendLog) await(what string, match func(*coherence.Msg) bool) coherence.Msg {
	l.t.Helper()
	for {
		for i := range l.sent {
			if msg := l.sent[i]; match(&msg) {
				l.sent = append(l.sent[:i], l.sent[i+1:]...)
				return msg
			}
		}
		if !l.m.eng.Step() {
			l.t.Fatalf("no %s was sent", what)
		}
	}
}

// fullSetFill drives node 0 by hand through a fill that finds every way of
// its L1 set pinned, then hands the directory what the node sent and
// returns the line. supplier picks who answers: "home" serves a GETX from
// the L2; "owner-getx" and "owner-gets" are served by node 3, the line's
// Modified owner. aborted aborts the transaction while the request is in
// flight, so the data lands during the rollback.
func fullSetFill(t *testing.T, m *Machine, supplier string, aborted bool) mem.Line {
	t.Helper()
	sends := captureSends(t, m)
	await := sends.await
	const owner = 3
	l := mem.Line(7 * mem.LineBytes)
	for h := m.home.Home(l); h == 0 || h == owner; h = m.home.Home(l) {
		l += mem.LineBytes
	}
	d := m.dirs[m.home.Home(l)]
	n := m.nodes[0]
	// Four other lines fill l's set, pinned, each listed at its home.
	stride := mem.Line(n.l1.Sets() * mem.LineBytes)
	for i := 1; i <= n.l1.Ways(); i++ {
		x := l + mem.Line(i)*stride
		m.dirs[m.home.Home(x)].Handle(&coherence.Msg{Type: coherence.MsgGETS, Line: x, Src: 0, Requester: 0})
		e, _, _ := n.l1.Insert(x, cache.Shared, mem.LineData{})
		e.Pinned = true
	}
	var data mem.LineData
	data[0] = 42
	if supplier == "home" {
		m.backing.Store(l, data)
	} else {
		d.Handle(&coherence.Msg{Type: coherence.MsgGETX, Line: l, Src: owner, Requester: owner, NeedData: true, IsWrite: true})
		d.Handle(&coherence.Msg{Type: coherence.MsgUnblock, Line: l, Src: owner, Success: true})
		m.nodes[owner].l1.Insert(l, cache.Modified, data)
	}
	op := OpWrite
	if supplier == "owner-gets" {
		op = OpRead
	}
	n.cur = TxInstance{StaticID: 1, Ops: []Op{{Kind: op, Addr: l.Word(0), Value: 5}}}
	n.startAttempt(false)
	req := await("request", func(msg *coherence.Msg) bool {
		return msg.Src == 0 && (msg.Type == coherence.MsgGETS || msg.Type == coherence.MsgGETX)
	})
	d.Handle(&req)
	if supplier != "home" {
		fwd := await("forward", func(msg *coherence.Msg) bool { return msg.Dst == owner && msg.Requester == 0 })
		m.nodes[owner].handleForward(&fwd)
		if supplier == "owner-gets" {
			wb := await("writeback", func(msg *coherence.Msg) bool { return msg.Type == coherence.MsgWBData })
			d.Handle(&wb)
		}
	}
	resp := await("data", func(msg *coherence.Msg) bool { return msg.Type == coherence.MsgData && msg.ReqID == req.ReqID })
	if aborted {
		n.abortTx(CauseTxGETX, false)
	}
	n.handleResponse(&resp)
	if n.req != nil || n.l1.Lookup(l) != nil {
		t.Fatalf("the fill left request %v, copy %v", n.req != nil, n.l1.Lookup(l) != nil)
	}
	// The UNBLOCK, and the PUTX when the copy is written back, reach the
	// directory in the order the node sent them.
	msgs := 1
	if n.wbWait.has(l) {
		msgs = 2
	}
	for ; msgs > 0; msgs-- {
		msg := await("UNBLOCK or PUTX", func(msg *coherence.Msg) bool {
			return msg.Src == 0 && msg.Line == l && (msg.Type == coherence.MsgUnblock || msg.Type == coherence.MsgPUTX)
		})
		d.Handle(&msg)
	}
	if n.wbWait.has(l) {
		ack := await("WBAck", func(msg *coherence.Msg) bool { return msg.Type == coherence.MsgWBAck && msg.Line == l })
		n.handleWB(&ack)
	}
	return l
}

// testFullSetFill checks where fullSetFill's copy went: data from home
// stays in the L2 with no owner recorded; an owner's data for a GETX is
// written back, and for a GETS the old owner keeps its shared copy beside
// the listed requester. No data is lost and CheckInvariants holds.
func testFullSetFill(t *testing.T, aborted bool) {
	for _, supplier := range []string{"home", "owner-getx", "owner-gets"} {
		t.Run(supplier, func(t *testing.T) {
			m, err := New(smallConfig(SchemeBaseline, 1), disjointWorkload{txPerCPU: 1})
			if err != nil {
				t.Fatal(err)
			}
			l := fullSetFill(t, m, supplier, aborted)
			d := m.dirs[m.home.Home(l)]
			st, sharers, owner := d.State(l)
			want := coherence.DirInvalid
			if supplier == "owner-gets" {
				want = coherence.DirShared
			}
			if d.Busy(l) || st != want || owner != -1 {
				t.Errorf("directory: busy %v, %v owner %d sharers %v; want %v with no owner", d.Busy(l), st, owner, sharers, want)
			}
			if got := m.backing.Load(l)[0]; got != 42 {
				t.Errorf("L2 holds %d, want the owner's 42", got)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFullSetFillLive: a live transaction whose fill finds its set pinned
// aborts for overflow, and the copy it could not keep is not lost.
func TestFullSetFillLive(t *testing.T) { testFullSetFill(t, false) }

// TestFullSetFillAfterAbort: the same fill landing while the transaction
// rolls back leaves no phantom owner and loses no data.
func TestFullSetFillAfterAbort(t *testing.T) { testFullSetFill(t, true) }

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

// TestSupersededContinuationInert: a backoff's reissue that a PUNO-Push
// wakeup or an abort superseded still pops at its cycle, and does nothing —
// the node's generation has moved past the one the event carries. The stale
// event is fired once by hand, where nothing about the node or the queue may
// change, and then left to pop from the queue; the run must still finish
// with every committed increment in memory.
func TestSupersededContinuationInert(t *testing.T) {
	cases := []struct {
		name      string
		scheme    Scheme
		supersede func(n *node)
	}{
		{"wakeup", SchemePUNOPush, func(n *node) {
			msg := coherence.Msg{Type: coherence.MsgWakeup, Line: mem.LineOf(n.cur.Ops[n.opIdx].Addr)}
			n.handleWakeup(&msg)
		}},
		{"abort", SchemePUNO, func(n *node) { n.abortTx(CauseTxGETX, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl := countIncrs(counterWorkload{name: "supersede", txPerCPU: 10, counters: 2, incrsPer: 2, think: 5})
			m, err := New(smallConfig(tc.scheme, 29), wl)
			if err != nil {
				t.Fatal(err)
			}
			m.active = m.cfg.Nodes
			for _, n := range m.nodes {
				n.start()
			}
			var n *node
			for n == nil && m.eng.Step() {
				for _, c := range m.nodes {
					if c.backingOff {
						n = c
						break
					}
				}
			}
			if n == nil {
				t.Fatal("no node ever backed off")
			}
			stale := uint64(n.pendGen)<<32 | nevReissue
			tc.supersede(n)

			backingOff, reqSeq, opIdx, pending := n.backingOff, n.reqSeq, n.opIdx, m.eng.Pending()
			n.OnEvent(nil, stale)
			if n.backingOff != backingOff || n.reqSeq != reqSeq || n.opIdx != opIdx || m.eng.Pending() != pending {
				t.Fatalf("superseded reissue acted: backingOff %v->%v reqSeq %d->%d opIdx %d->%d pending %d->%d",
					backingOff, n.backingOff, reqSeq, n.reqSeq, opIdx, n.opIdx, pending, m.eng.Pending())
			}

			m.eng.Run(m.cfg.MaxCycles)
			if m.runErr != nil || m.active != 0 {
				t.Fatalf("run did not finish: err %v, %d threads active", m.runErr, m.active)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := wl.check(t, m); got == 0 {
				t.Fatal("no increment committed")
			}
		})
	}
}

// TestOwnershipCheckedPerLine: a directory M entry whose owner holds no
// exclusive copy is reported even while another line at the same home is
// busy — the busy exemption covers only the busy entry itself.
func TestOwnershipCheckedPerLine(t *testing.T) {
	m, err := New(smallConfig(SchemeBaseline, 1), disjointWorkload{txPerCPU: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Line(7 * mem.LineBytes)
	b := a + mem.LineBytes
	for m.home.Home(b) != m.home.Home(a) {
		b += mem.LineBytes
	}
	d := m.dirs[m.home.Home(a)]
	getx := func(l mem.Line, src int) *coherence.Msg {
		return &coherence.Msg{Type: coherence.MsgGETX, Line: l, Src: src, Requester: src, NeedData: true, IsWrite: true}
	}
	d.Handle(getx(a, 1))
	d.Handle(&coherence.Msg{Type: coherence.MsgUnblock, Line: a, Src: 1, Success: true})
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("M entry whose owner holds no copy at all not reported")
	}
	m.nodes[1].l1.Insert(a, cache.Shared, mem.LineData{}) // the owner holds only a shared copy
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("M entry whose owner holds no exclusive copy not reported")
	}
	d.Handle(getx(b, 2))
	if !d.Busy(b) || d.Busy(a) {
		t.Fatalf("busy: %v %v, want only %v", d.Busy(a), d.Busy(b), b)
	}
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("a busy line at the same home hid the ownership violation")
	}
}

// TestUnlistedHolderReported: an L1 copy of a line whose directory entry is
// not busy and does not list the holder breaks "directory sharers ⊇
// holders", and so does a second copy of a line another L1 holds Modified.
func TestUnlistedHolderReported(t *testing.T) {
	m, err := New(smallConfig(SchemeBaseline, 1), disjointWorkload{txPerCPU: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Line(7 * mem.LineBytes)
	d := m.dirs[m.home.Home(a)]
	d.Handle(&coherence.Msg{Type: coherence.MsgGETS, Line: a, Src: 1, Requester: 1, NeedData: true})
	m.nodes[1].l1.Insert(a, cache.Shared, mem.LineData{})
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("listed sharer reported: %v", err)
	}
	m.nodes[2].l1.Insert(a, cache.Shared, mem.LineData{})
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("holder missing from the sharer list not reported")
	}
	m.nodes[2].l1.Invalidate(a)
	m.nodes[3].l1.Insert(a+mem.LineBytes, cache.Modified, mem.LineData{})
	m.nodes[4].l1.Insert(a+mem.LineBytes, cache.Shared, mem.LineData{})
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("a Modified copy plus a second copy not reported")
	}
}

// TestOverParkedEntryReported: a busy entry can park at most nodes-1 reads,
// since every node has one request outstanding and the busy requester's is
// being served; one more (a node with two requests) is reported.
func TestOverParkedEntryReported(t *testing.T) {
	m, err := New(smallConfig(SchemeBaseline, 1), disjointWorkload{txPerCPU: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Line(7 * mem.LineBytes)
	d := m.dirs[m.home.Home(a)]
	gets := func(src int) *coherence.Msg {
		return &coherence.Msg{Type: coherence.MsgGETS, Line: a, Src: src, Requester: src, NeedData: true}
	}
	d.Handle(&coherence.Msg{Type: coherence.MsgGETX, Line: a, Src: 0, Requester: 0, NeedData: true, IsWrite: true})
	for src := 1; src < m.cfg.Nodes; src++ {
		d.Handle(gets(src))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("nodes-1 parked reads reported: %v", err)
	}
	d.Handle(gets(1))
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("a read parked beyond nodes-1 not reported")
	}
}

// TestCheckInvariantsAllocFree: the check allocates nothing when it finds
// nothing, so a test may run it every few events.
func TestCheckInvariantsAllocFree(t *testing.T) {
	m, _ := runWorkload(t, smallConfig(SchemeBaseline, 3),
		counterWorkload{name: "allocs", txPerCPU: 10, counters: 4, incrsPer: 2, think: 10})
	if m.cfg.Nodes != 16 {
		t.Fatalf("nodes = %d, want the 16-node default", m.cfg.Nodes)
	}
	var err error
	if allocs := testing.AllocsPerRun(20, func() { err = m.CheckInvariants() }); allocs != 0 {
		t.Fatalf("CheckInvariants allocates %v times per call", allocs)
	}
	if err != nil {
		t.Fatal(err)
	}
}
