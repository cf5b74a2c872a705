package coherence

import (
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// mockEnv records sent messages and serves line data instantly.
type mockEnv struct {
	now     sim.Time
	sent    []*Msg
	delays  []sim.Time
	backing *mem.Backing
	l2Lat   sim.Time
}

func newMockEnv() *mockEnv {
	return &mockEnv{backing: mem.NewBacking(), l2Lat: 20}
}

func (e *mockEnv) Now() sim.Time { return e.now }
func (e *mockEnv) NewMsg() *Msg  { return &Msg{} }
func (e *mockEnv) Send(delay sim.Time, m *Msg) {
	e.sent = append(e.sent, m)
	e.delays = append(e.delays, delay)
}
func (e *mockEnv) Interner() *mem.Interner { return e.backing.Interner() }
func (e *mockEnv) LineData(l mem.Line, id mem.LineID) (mem.LineData, sim.Time) {
	return e.backing.LoadID(id), e.l2Lat
}
func (e *mockEnv) StoreLine(l mem.Line, id mem.LineID, d mem.LineData) { e.backing.StoreID(id, d) }

func (e *mockEnv) take() []*Msg {
	out := e.sent
	e.sent = nil
	e.delays = nil
	return out
}

func (e *mockEnv) mustOne(t *testing.T, want MsgType) *Msg {
	t.Helper()
	msgs := e.take()
	if len(msgs) != 1 {
		t.Fatalf("sent %d messages, want 1 (%v)", len(msgs), want)
	}
	if msgs[0].Type != want {
		t.Fatalf("sent %v, want %v", msgs[0].Type, want)
	}
	return msgs[0]
}

const testLine = mem.Line(0x40 * 7)

func gets(src int, tx bool, prio htm.Priority) *Msg {
	return &Msg{Type: MsgGETS, Line: testLine, Src: src, Requester: src, IsTx: tx, Prio: prio}
}

func getx(src int, tx bool, prio htm.Priority, needData bool) *Msg {
	return &Msg{Type: MsgGETX, Line: testLine, Src: src, Requester: src, IsTx: tx, Prio: prio, NeedData: needData, IsWrite: true}
}

func unblock(src int, success bool) *Msg {
	return &Msg{Type: MsgUnblock, Line: testLine, Src: src, Success: success}
}

func TestGETSFromInvalidGrantsShared(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	env.backing.StoreWord(testLine.Word(0), 99)

	d.Handle(gets(3, false, htm.NoPriority))
	m := env.mustOne(t, MsgData)
	if m.Dst != 3 || m.Flits() != DataFlits || m.Data[0] != 99 {
		t.Fatalf("bad data response: %+v", m)
	}
	st, sharers, _ := d.State(testLine)
	if st != DirShared || len(sharers) != 1 || sharers[0] != 3 {
		t.Fatalf("state=%v sharers=%v", st, sharers)
	}
	if d.BusyLines() != 0 {
		t.Fatal("GETS from I should not block the entry")
	}
}

func TestGETSAccumulatesSharers(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	for _, n := range []int{1, 5, 9} {
		d.Handle(gets(n, false, htm.NoPriority))
	}
	_, sharers, _ := d.State(testLine)
	if len(sharers) != 3 {
		t.Fatalf("sharers = %v, want 3 nodes", sharers)
	}
}

func TestGETXFromInvalid(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(getx(2, true, 100, true))
	m := env.mustOne(t, MsgData)
	if m.AckCount != 0 {
		t.Fatalf("AckCount = %d, want 0", m.AckCount)
	}
	if d.BusyLines() != 1 {
		t.Fatal("GETX should block until UNBLOCK")
	}
	d.Handle(unblock(2, true))
	st, _, owner := d.State(testLine)
	if st != DirModified || owner != 2 {
		t.Fatalf("after unblock: state=%v owner=%d", st, owner)
	}
	if d.BusyLines() != 0 {
		t.Fatal("entry still busy after UNBLOCK")
	}
}

func TestGETXMulticastsToAllSharers(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	for _, n := range []int{1, 5, 9} {
		d.Handle(gets(n, true, htm.Priority(n)))
	}
	env.take()

	d.Handle(getx(2, true, 50, true))
	msgs := env.take()
	var fwds, data int
	fwdTargets := map[int]bool{}
	for _, m := range msgs {
		switch m.Type {
		case MsgFwdGETX:
			fwds++
			fwdTargets[m.Dst] = true
			if m.Requester != 2 || !m.IsWrite || m.UBit {
				t.Fatalf("bad forward: %+v", m)
			}
		case MsgData:
			data++
			if m.AckCount != 3 {
				t.Fatalf("AckCount = %d, want 3", m.AckCount)
			}
		}
	}
	if fwds != 3 || data != 1 {
		t.Fatalf("fwds=%d data=%d, want 3/1", fwds, data)
	}
	if !fwdTargets[1] || !fwdTargets[5] || !fwdTargets[9] {
		t.Fatalf("forwards went to %v", fwdTargets)
	}
}

func TestGETXUpgradeExcludesRequester(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(gets(2, true, 50))
	d.Handle(gets(7, true, 60))
	env.take()

	// Node 2 upgrades: it already has the data.
	d.Handle(getx(2, true, 50, false))
	msgs := env.take()
	if len(msgs) != 2 {
		t.Fatalf("sent %d messages, want fwd+ackcount", len(msgs))
	}
	var sawFwd, sawCount bool
	for _, m := range msgs {
		switch m.Type {
		case MsgFwdGETX:
			sawFwd = true
			if m.Dst != 7 {
				t.Fatalf("forward to %d, want 7", m.Dst)
			}
		case MsgAckCount:
			sawCount = true
			if m.AckCount != 1 || m.Flits() != ControlFlits {
				t.Fatalf("bad AckCount msg: %+v", m)
			}
		}
	}
	if !sawFwd || !sawCount {
		t.Fatal("missing forward or ackcount")
	}
}

func TestGETXSoleSharerUpgradeImmediateGrant(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(gets(2, true, 50))
	env.take()
	d.Handle(getx(2, true, 50, false))
	m := env.mustOne(t, MsgAckCount)
	if m.AckCount != 0 {
		t.Fatalf("AckCount = %d, want 0", m.AckCount)
	}
	d.Handle(unblock(2, true))
	st, _, owner := d.State(testLine)
	if st != DirModified || owner != 2 {
		t.Fatalf("state=%v owner=%d", st, owner)
	}
}

func TestGETXFailRestoresSharers(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	for _, n := range []int{1, 5} {
		d.Handle(gets(n, true, htm.Priority(n)))
	}
	env.take()
	d.Handle(getx(9, true, 50, true))
	env.take()
	d.Handle(unblock(9, false)) // NACKed
	st, sharers, _ := d.State(testLine)
	if st != DirShared || len(sharers) != 2 {
		t.Fatalf("after failed GETX: state=%v sharers=%v", st, sharers)
	}
}

func TestBusyLineQueuesNewRequests(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(gets(1, true, 10))
	env.take()
	d.Handle(getx(2, true, 20, true)) // blocks the entry
	env.take()

	// A read parks on the busy entry; a write is rejected (it retries via
	// its backoff policy — parking writes would give them perfectly
	// prompt handoff and hide the polling cost schemes differ on).
	d.Handle(gets(3, true, 30))
	if msgs := env.take(); len(msgs) != 0 {
		t.Fatalf("busy entry sent %d messages for a GETS, want 0 (queued)", len(msgs))
	}
	d.Handle(getx(4, true, 40, true))
	if m := env.mustOne(t, MsgNackBusy); m.Dst != 4 {
		t.Fatalf("NackBusy to %d, want 4", m.Dst)
	}
	if busy := d.BusyEntries(); len(busy) != 1 || busy[0].Pending != 1 {
		t.Fatalf("busy entries %+v, want one with 1 pending request", busy)
	}

	// Unblocking node 2's GETX must immediately service node 3's GETS.
	d.Handle(unblock(2, true))
	msgs := env.take()
	if len(msgs) != 1 || msgs[0].Type != MsgFwdGETS || msgs[0].Dst != 2 || msgs[0].Requester != 3 {
		t.Fatalf("after unblock got %v, want FwdGETS to new owner 2 for requester 3", msgs)
	}
}

func TestQueueOverflowFallsBackToNackBusy(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.QueueCap = 1
	d.Handle(getx(2, true, 20, true)) // busy
	env.take()
	d.Handle(gets(3, true, 30)) // queued
	if msgs := env.take(); len(msgs) != 0 {
		t.Fatal("first pending request should queue silently")
	}
	d.Handle(gets(4, true, 40)) // queue full
	m := env.mustOne(t, MsgNackBusy)
	if m.Dst != 4 {
		t.Fatalf("NackBusy to %d, want 4", m.Dst)
	}
	if d.Stats().BusyNacks != 1 {
		t.Fatalf("BusyNacks = %d, want 1", d.Stats().BusyNacks)
	}
}

func TestGETSFromModifiedForwardsToOwner(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(getx(2, true, 50, true))
	env.take()
	d.Handle(unblock(2, true))

	d.Handle(gets(7, true, 60))
	m := env.mustOne(t, MsgFwdGETS)
	if m.Dst != 2 || m.Requester != 7 {
		t.Fatalf("bad FwdGETS: %+v", m)
	}
	// Owner sends WBData, requester unblocks: downgrade to S with both.
	var data mem.LineData
	data[0] = 123
	d.Handle(&Msg{Type: MsgWBData, Line: testLine, Src: 2, Data: data})
	d.Handle(unblock(7, true))
	st, sharers, _ := d.State(testLine)
	if st != DirShared || len(sharers) != 2 {
		t.Fatalf("after downgrade: state=%v sharers=%v", st, sharers)
	}
	if env.backing.Load(testLine)[0] != 123 {
		t.Fatal("WBData not stored to L2")
	}
}

func TestGETSFromModifiedWaitsForWBData(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(getx(2, true, 50, true))
	env.take()
	d.Handle(unblock(2, true))
	d.Handle(gets(7, true, 60))
	env.take()

	// UNBLOCK(success) before WBData: entry must stay busy.
	d.Handle(unblock(7, true))
	if d.BusyLines() != 1 {
		t.Fatal("completed without waiting for WBData")
	}
	d.Handle(&Msg{Type: MsgWBData, Line: testLine, Src: 2})
	if d.BusyLines() != 0 {
		t.Fatal("still busy after WBData + UNBLOCK")
	}
}

func TestGETSFromModifiedNackedRestoresOwner(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(getx(2, true, 50, true))
	env.take()
	d.Handle(unblock(2, true))
	d.Handle(gets(7, true, 60))
	env.take()
	d.Handle(unblock(7, false)) // owner NACKed; no WBData will come
	st, _, owner := d.State(testLine)
	if st != DirModified || owner != 2 {
		t.Fatalf("after failed GETS: state=%v owner=%d", st, owner)
	}
	if d.BusyLines() != 0 {
		t.Fatal("busy after failed GETS unblock")
	}
}

func TestGETXFromModifiedTransfersOwnership(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(getx(2, true, 50, true))
	env.take()
	d.Handle(unblock(2, true))

	d.Handle(getx(9, true, 40, true))
	m := env.mustOne(t, MsgFwdGETX)
	if m.Dst != 2 || m.Requester != 9 {
		t.Fatalf("bad FwdGETX: %+v", m)
	}
	d.Handle(unblock(9, true))
	st, _, owner := d.State(testLine)
	if st != DirModified || owner != 9 {
		t.Fatalf("state=%v owner=%d", st, owner)
	}
}

func TestPUTXStoresAndAcks(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(getx(2, false, htm.NoPriority, true))
	env.take()
	d.Handle(unblock(2, true))

	var data mem.LineData
	data[3] = 77
	d.Handle(&Msg{Type: MsgPUTX, Line: testLine, Src: 2, Data: data})
	m := env.mustOne(t, MsgWBAck)
	if m.Dst != 2 {
		t.Fatalf("WBAck to %d", m.Dst)
	}
	st, _, _ := d.State(testLine)
	if st != DirInvalid {
		t.Fatalf("after PUTX state=%v, want I", st)
	}
	if env.backing.Load(testLine)[3] != 77 {
		t.Fatal("PUTX data not stored")
	}
}

func TestPUTXRacingForwardGetsStale(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(getx(2, false, htm.NoPriority, true))
	env.take()
	d.Handle(unblock(2, true))
	// New GETX is in flight to owner 2 (entry busy)...
	d.Handle(getx(9, false, htm.NoPriority, true))
	env.take()
	// ...when 2's victim writeback arrives.
	d.Handle(&Msg{Type: MsgPUTX, Line: testLine, Src: 2})
	env.mustOne(t, MsgWBStale)
}

func TestPUTXFromNonOwnerGetsStale(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(&Msg{Type: MsgPUTX, Line: testLine, Src: 4})
	env.mustOne(t, MsgWBStale)
}

func TestDirectoryBlockingAccounting(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	d.Handle(gets(1, true, 10))
	env.take()
	env.now = 100
	d.Handle(getx(2, true, 20, true))
	env.take()
	env.now = 160
	d.Handle(unblock(2, true))
	st := d.Stats()
	if st.TxGETXBusy != 60 {
		t.Fatalf("TxGETXBusy = %d, want 60", st.TxGETXBusy)
	}
	if st.BusyCycles != 60 {
		t.Fatalf("BusyCycles = %d, want 60", st.BusyCycles)
	}
	// Non-transactional GETX must not count toward the Fig. 12 metric.
	env.now = 200
	d.Handle(getx(3, false, htm.NoPriority, true))
	env.take()
	env.now = 230
	d.Handle(unblock(3, true))
	st = d.Stats()
	if st.TxGETXBusy != 60 {
		t.Fatalf("non-tx GETX counted: TxGETXBusy = %d", st.TxGETXBusy)
	}
	if st.BusyCycles != 90 {
		t.Fatalf("BusyCycles = %d, want 90", st.BusyCycles)
	}
}

func TestUnblockNonBusyPanics(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	defer func() {
		if recover() == nil {
			t.Error("UNBLOCK on idle line did not panic")
		}
	}()
	d.Handle(unblock(2, true))
}

// recordingPredictor scripts unicast decisions and records calls.
type recordingPredictor struct {
	observed     []int
	unicastDest  int
	unicastOK    bool
	mispredicted []int
	udCalls      int
}

func (p *recordingPredictor) ObserveRequest(node int, prio htm.Priority, avg sim.Time) {
	p.observed = append(p.observed, node)
}
func (p *recordingPredictor) PredictUnicast(l mem.Line, sharers []int, req int, prio htm.Priority) (int, bool) {
	return p.unicastDest, p.unicastOK
}
func (p *recordingPredictor) UpdateUD(l mem.Line, sharers []int) { p.udCalls++ }
func (p *recordingPredictor) UnicastResolved(correct bool)       {}
func (p *recordingPredictor) MulticastResolved(falseAbort bool)  {}
func (p *recordingPredictor) Misprediction(l mem.Line, node int, prio htm.Priority) {
	p.mispredicted = append(p.mispredicted, node)
}
func (p *recordingPredictor) DecisionLatency() sim.Time { return 2 }

func TestPredictiveUnicastSendsOneForward(t *testing.T) {
	env := newMockEnv()
	pred := &recordingPredictor{unicastDest: 5, unicastOK: true}
	d := NewDirectory(0, 16, env, pred)
	for _, n := range []int{1, 5, 9} {
		d.Handle(gets(n, true, htm.Priority(n)))
	}
	env.take()

	d.Handle(getx(2, true, 50, true))
	msgs := env.take()
	if len(msgs) != 1 {
		t.Fatalf("unicast path sent %d messages, want 1", len(msgs))
	}
	m := msgs[0]
	if m.Type != MsgFwdGETX || m.Dst != 5 || !m.UBit {
		t.Fatalf("bad unicast forward: %+v", m)
	}
	if d.Stats().UnicastForwards != 1 {
		t.Fatal("unicast not counted")
	}
	// Requester is NACKed by node 5 and unblocks with failure.
	d.Handle(unblock(2, false))
	st, sharers, _ := d.State(testLine)
	if st != DirShared || len(sharers) != 3 {
		t.Fatalf("after unicast fail: state=%v sharers=%v", st, sharers)
	}
}

func TestMispredictionFeedbackReachesPredictor(t *testing.T) {
	env := newMockEnv()
	pred := &recordingPredictor{unicastDest: 5, unicastOK: true}
	d := NewDirectory(0, 16, env, pred)
	for _, n := range []int{1, 5} {
		d.Handle(gets(n, true, htm.Priority(n)))
	}
	env.take()
	d.Handle(getx(2, true, 50, true))
	env.take()
	d.Handle(&Msg{Type: MsgUnblock, Line: testLine, Src: 2, Success: false, MPBit: true, MPNode: 5})
	if len(pred.mispredicted) != 1 || pred.mispredicted[0] != 5 {
		t.Fatalf("mispredictions = %v, want [5]", pred.mispredicted)
	}
	if d.Stats().Mispredictions != 1 {
		t.Fatal("misprediction not counted")
	}
}

func TestPredictorObservesTxRequests(t *testing.T) {
	env := newMockEnv()
	pred := &recordingPredictor{}
	d := NewDirectory(0, 16, env, pred)
	d.Handle(gets(3, true, 30))
	d.Handle(gets(4, false, htm.NoPriority)) // non-tx: not observed
	if len(pred.observed) != 1 || pred.observed[0] != 3 {
		t.Fatalf("observed = %v, want [3]", pred.observed)
	}
}

func TestNonTxGETXNeverUnicast(t *testing.T) {
	env := newMockEnv()
	pred := &recordingPredictor{unicastDest: 1, unicastOK: true}
	d := NewDirectory(0, 16, env, pred)
	d.Handle(gets(1, true, 10))
	d.Handle(gets(5, true, 20))
	env.take()
	d.Handle(getx(9, false, htm.NoPriority, true))
	msgs := env.take()
	fwds := 0
	for _, m := range msgs {
		if m.Type == MsgFwdGETX {
			fwds++
			if m.UBit {
				t.Fatal("non-tx GETX was unicast")
			}
		}
	}
	if fwds != 2 {
		t.Fatalf("fwds = %d, want 2 (multicast)", fwds)
	}
}

func TestMsgFlitsAndClass(t *testing.T) {
	// The type alone sizes a message: the three that carry a line span
	// DataFlits, every other one flit.
	for typ := MsgGETS; typ <= MsgWakeup; typ++ {
		want := ControlFlits
		if typ == MsgData || typ == MsgWBData || typ == MsgPUTX {
			want = DataFlits
		}
		if got := (&Msg{Type: typ}).Flits(); got != want || typ.Flits() != want {
			t.Errorf("%v: %d flits, want %d", typ, got, want)
		}
	}
	if (&Msg{Type: MsgGETX}).Class().String() != "request" {
		t.Fatal("GETX class wrong")
	}
	if (&Msg{Type: MsgFwdGETX}).Class().String() != "forward" {
		t.Fatal("FwdGETX class wrong")
	}
	if (&Msg{Type: MsgNack}).Class().String() != "response" {
		t.Fatal("Nack class wrong")
	}
}

func TestDirStateStrings(t *testing.T) {
	if DirInvalid.String() != "I" || DirShared.String() != "S" || DirModified.String() != "M" {
		t.Fatal("DirState strings wrong")
	}
}

func TestTooManyNodesPanics(t *testing.T) {
	// MaxNodes itself must construct (the 16x16 config sits right at 256).
	NewDirectory(0, MaxNodes, newMockEnv(), nil)
	defer func() {
		if recover() == nil {
			t.Errorf("%d-node directory did not panic", MaxNodes+1)
		}
	}()
	NewDirectory(0, MaxNodes+1, newMockEnv(), nil)
}
