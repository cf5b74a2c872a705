package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cm"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// outstanding tracks one in-flight memory request and the responses
// collected so far.
type outstanding struct {
	id       uint64
	line     mem.Line
	lid      mem.LineID // line's interned dense ID (assigned at issue)
	isWrite  bool       // the protocol request is a GETX
	promoted bool       // a load promoted to GETX by the RMW predictor

	expected int // sharer responses to collect; -1 until the header arrives
	received int
	// soleDone marks the request's one Sole response (owner data, or a NACK
	// from an owner or a unicast target): nothing else will answer it.
	soleDone bool

	data    mem.LineData
	hasData bool

	sawNack        bool
	tEstMax        sim.Time
	mpSeen         bool
	mpNode         int
	mpPrio         htm.Priority
	abortedSharers int

	abortedLocally bool // our transaction died while this request was in flight

	// staleData marks a pending GETS whose line was invalidated while the
	// data was still in flight from the home node (the directory does not
	// block for GETS serviced from L2, so a later GETX can overtake the
	// response). The arriving copy must be discarded and refetched.
	staleData bool
}

// node is one tile: core + HTM + private L1 + (via machine) its directory
// slice and L2 bank.
type node struct {
	id   int
	m    *Machine
	l1   *cache.Cache
	tx   *htm.Tx
	txlb *core.TxLB
	rng  *sim.RNG
	// rmw is the node's RMW predictor: nil unless the scheme is RMW-Pred,
	// kept and emptied in place across resets that stay on it.
	rmw *cm.RMWPred

	prog  Program
	cur   TxInstance
	opIdx int
	phase int    // 0 = read phase, 1 = write phase (OpIncr)
	rdVal uint64 // value loaded by the read phase of an OpIncr

	// req points at reqBuf while a request is in flight (nil otherwise);
	// the buffer is reused across requests so issuing allocates nothing.
	// Stale-response filtering is by ReqID, not pointer identity.
	req           *outstanding
	reqBuf        outstanding
	reqSeq        uint64
	accessRetries int // NACKs endured by the current logical access
	// accessRefetches counts the current logical access's stale-data
	// discard-and-refetch rounds. DumpState prints it; no Result field
	// carries it.
	accessRefetches int

	// Per-logical-access outcome accumulation (Fig. 2 classifies each
	// transactional write access once, across all its retries): accFalse
	// marks an issue that aborted sharers AND was NACKed (those aborts
	// were unnecessary); accResolved marks aborts by the final successful
	// issue (necessary conflict resolution).
	accNacked   bool
	accFalse    bool
	accResolved bool
	accLive     bool

	// firstLoad associates line -> op index of the first load this attempt;
	// used to train the RMW predictor when the same line is later stored,
	// so it is recorded only while rmw is set.
	firstLoad firstLoadTable
	// promotedLoads associates line -> op index of loads this attempt
	// issued as exclusive requests on the RMW predictor's advice; used to
	// anti-train the predictor at commit when no store followed.
	promotedLoads lineOpSet

	// wbWait holds Modified victims between PUTX and WBAck; the retained
	// copy services forwards that raced with the writeback.
	wbWait wbTable

	// wakeupSubs (PUNO-Push) records the requesters to ping when this
	// node's transaction finishes.
	wakeupSubs wakeupTable

	pendGen uint32 // generation of the live cancellable continuation
	// backingOff marks a node waiting out a backoff before it re-issues
	// the current access (its live continuation is nevReissue).
	backingOff bool
	atsRetry   bool // queued for the ATS token: the attempt it will begin is a retry
	doneAt     sim.Time
	ovfStreak  int // consecutive overflow aborts of the current instance

	// Continuation stash for closure-free event dispatch: the parameters of
	// the single in-flight cancellable op event (pendEntry/pendAddr/pendVal)
	// and the copied forward a deferred post-abort grant answers. At most
	// one user of each is in flight at a time.
	pendEntry *cache.Entry
	pendAddr  mem.Addr
	pendVal   uint64
	grantMsg  coherence.Msg
}

func newNode(id int, m *Machine, prog Program) *node {
	n := &node{
		id:   id,
		m:    m,
		l1:   cache.New(m.cfg.L1),
		tx:   htm.NewTx(id),
		txlb: core.NewTxLB(core.TxLBEntries),
	}
	n.tx.SetInterner(m.it)
	n.attach(prog)
	return n
}

// attach installs the per-run pieces newNode and reset share: the program,
// the node's forked RNG, and the RMW predictor the scheme asks for. The fork
// happens here — after the caller forked the program's RNG — so fresh and
// reused nodes consume the root stream in the same order.
func (n *node) attach(prog Program) {
	n.prog = prog
	n.rng = n.m.rootRNG.Fork(uint64(n.id) + 1)
	switch {
	case !n.m.scheme.rmwPred:
		n.rmw = nil
	case n.rmw == nil:
		n.rmw = cm.NewRMWPred()
	default:
		n.rmw.Reset()
	}
}

// reset rearms the node for a fresh run under the machine's (possibly new)
// config, reusing its containers: the L1 array, the HTM context's set/undo
// storage, the TxLB, the RMW predictor, the writeback map, and the lineOpSet
// backing slices. Every other field reverts to its newNode zero value
// wholesale, so a forgotten field cannot leak state between arena-reused
// runs.
func (n *node) reset(prog Program) {
	n.l1.Reset(n.m.cfg.L1)
	n.tx.HardReset(n.id)
	n.tx.SetInterner(n.m.it)
	n.txlb.Reset(core.TxLBEntries)
	wb := n.wbWait
	wb.reset()
	fl, pl := n.firstLoad, n.promotedLoads
	fl.reset()
	pl.reset()
	*n = node{
		id:            n.id,
		m:             n.m,
		l1:            n.l1,
		tx:            n.tx,
		txlb:          n.txlb,
		rmw:           n.rmw,
		wbWait:        wb,
		firstLoad:     fl,
		promotedLoads: pl,
	}
	n.attach(prog)
}

// Node event codes for closure-free continuation dispatch (sim.Handler).
const (
	nevExecOp       uint64 = iota // cancellable: begin-cost elapsed, run the op
	nevOpDone                     // cancellable: compute op finished
	nevReadPhase                  // cancellable: L1 hit latency elapsed (load)
	nevWriteDone                  // cancellable: L1 hit latency elapsed (store)
	nevReissue                    // cancellable: backoff expired, retry access
	nevFetchNext                  // think time / stagger elapsed
	nevFinishAbort                // rollback latency elapsed
	nevCommitDone                 // commit cost elapsed
	nevRestartBegin               // restart wait elapsed
	nevGrantAborted               // post-abort grant of the stashed forward
)

// OnEvent implements sim.Handler: the low half of the word selects the
// continuation. A cancellable one carries the node's pendGen from when it
// was scheduled in the high half, and is dropped if cancelPending has
// moved pendGen on since.
func (n *node) OnEvent(_ any, word uint64) {
	code := word & (1<<32 - 1)
	if code <= nevReissue && uint32(word>>32) != n.pendGen {
		return
	}
	switch code {
	case nevExecOp:
		n.execOp()
	case nevOpDone:
		n.opDone()
	case nevReadPhase:
		n.readPhaseDone(n.pendEntry, n.pendAddr)
	case nevWriteDone:
		n.writeDone(n.pendEntry, n.pendAddr, n.pendVal)
	case nevReissue:
		n.reissue()
	case nevFetchNext:
		n.fetchNext()
	case nevFinishAbort:
		n.finishAbort()
	case nevCommitDone:
		n.commitDone()
	case nevRestartBegin:
		n.beginAttempt(true)
	case nevGrantAborted:
		g := n.grantMsg
		n.grant(&g, true)
	default:
		panic(fmt.Sprintf("machine: node %d unknown event code %d", n.id, code))
	}
}

// afterEv schedules a continuation on this node.
//
//puno:hot
func (n *node) afterEv(d sim.Time, code uint64) { n.m.eng.AfterEvent(d, n, nil, code) }

// afterCancellableEv schedules a continuation tagged with the node's
// current pendGen, so cancelPending can supersede it.
//
//puno:hot
func (n *node) afterCancellableEv(d sim.Time, code uint64) {
	n.m.eng.AfterEvent(d, n, nil, uint64(n.pendGen)<<32|code)
}

// cancelPending supersedes the node's queued cancellable continuation: it
// still fires at its cycle, as a no-op.
func (n *node) cancelPending() {
	n.pendGen++
	n.backingOff = false
}

// backOff waits d cycles, then re-runs the current access.
//
//puno:hot
func (n *node) backOff(d sim.Time) {
	n.backingOff = true
	n.afterCancellableEv(d, nevReissue)
}

// ---- program driving -------------------------------------------------

// start begins the thread with a small per-node stagger.
func (n *node) start() {
	n.afterEv(sim.Time(n.id)+1, nevFetchNext)
}

func (n *node) fetchNext() {
	tx, ok := n.prog.Next(n.rng)
	if !ok {
		n.doneAt = n.m.eng.Now()
		n.m.threadDone()
		return
	}
	n.cur = tx
	n.beginAttempt(false)
}

// beginAttempt starts (or restarts) the current instance. Under ATS a
// high-contention thread first needs the machine-wide token; while another
// node holds it this node waits in the scheduler's queue, and the holder's
// endATS starts the attempt.
//
//puno:hot
func (n *node) beginAttempt(retry bool) {
	if n.m.scheme.ats && !n.m.ats.Admit(n.id) {
		n.atsRetry = retry
		return
	}
	n.startAttempt(retry)
}

// startAttempt begins the attempt beginAttempt admitted.
//
//puno:hot
func (n *node) startAttempt(retry bool) {
	if n.tx.Status == htm.StatusCommitted || n.tx.Status == htm.StatusAborted {
		n.tx.Reset()
	}
	n.tx.Begin(n.cur.StaticID, n.m.eng.Now(), retry)
	n.opIdx = 0
	n.phase = 0
	n.accessRetries = 0
	n.accessRefetches = 0
	n.firstLoad.reset()
	n.promotedLoads.reset()
	n.afterCancellableEv(htm.DefaultCosts().BeginCycles, nevExecOp)
}

// execOp dispatches the current operation (or commits when done).
//
//puno:hot
func (n *node) execOp() {
	if !n.tx.Running() || n.req != nil || n.backingOff {
		panic(fmt.Sprintf("machine: node %d execOp with tx %v, request %v, backing off %v",
			n.id, n.tx.Status, n.req != nil, n.backingOff))
	}
	if n.opIdx >= len(n.cur.Ops) {
		n.commit()
		return
	}
	op := n.cur.Ops[n.opIdx]
	switch op.Kind {
	case OpCompute:
		n.afterCancellableEv(op.Cycles, nevOpDone)
	case OpRead:
		n.accessRead(op.Addr)
	case OpWrite:
		n.accessWrite(op.Addr, op.Value)
	case OpIncr:
		if n.phase == 0 {
			n.accessRead(op.Addr)
		} else {
			n.accessWrite(op.Addr, n.rdVal+1)
		}
	}
}

// finishAccess classifies a completed (or killed) transactional write
// access for Fig. 2 and resets the per-access accumulators.
func (n *node) finishAccess() {
	if n.accLive {
		n.m.res.TxGETXAccesses++
		switch {
		case n.accFalse:
			n.m.res.GETXOutcomes[OutcomeFalseAbort]++
		case n.accResolved:
			n.m.res.GETXOutcomes[OutcomeResolvedAborts]++
		case n.accNacked:
			n.m.res.GETXOutcomes[OutcomeNackOnly]++
		default:
			n.m.res.GETXOutcomes[OutcomeClean]++
		}
	}
	n.accLive = false
	n.accNacked = false
	n.accFalse = false
	n.accResolved = false
}

// opDone advances past the current op.
//
//puno:hot
func (n *node) opDone() {
	n.opIdx++
	n.phase = 0
	n.accessRetries = 0
	n.accessRefetches = 0
	n.execOp()
}

// readPhaseDone finishes a load: record the read and move to the next op or
// the write phase of an OpIncr. The entry is looked up afresh: during the
// hit latency the line is not yet in the read set, so a forwarded
// invalidation may have removed it — in that case the access simply retries
// as a miss.
//
//puno:hot
func (n *node) readPhaseDone(e *cache.Entry, a mem.Addr) {
	l := mem.LineOf(a)
	if e == nil || e.Line != l || e.State == cache.Invalid {
		n.execOp()
		return
	}
	n.tx.RecordReadID(l, e.LID)
	e.Pinned = true
	if n.rmw != nil {
		n.firstLoad.record(e.LID, n.opIdx)
	}
	n.rdVal = e.Data[mem.WordIndex(a)]
	if n.cur.Ops[n.opIdx].Kind == OpIncr {
		n.phase = 1
		n.accessRetries = 0
		n.accessRefetches = 0
		n.execOp()
		return
	}
	n.opDone()
}

// writeDone finishes a store into a Modified resident line. As
// with readPhaseDone, the line may have been stolen during the hit latency
// (it was not yet in the write set); re-validate and retry on loss.
//
//puno:hot
func (n *node) writeDone(e *cache.Entry, a mem.Addr, v uint64) {
	l := mem.LineOf(a)
	if e == nil || e.Line != l || e.State != cache.Modified {
		n.execOp()
		return
	}
	old := e.Data[mem.WordIndex(a)]
	n.tx.RecordWriteID(l, e.LID, a, old)
	e.Pinned = true
	e.Data[mem.WordIndex(a)] = v
	if n.rmw != nil {
		if loadIdx, ok := n.firstLoad.get(e.LID); ok {
			n.rmw.ObserveRMW(n.cur.StaticID, loadIdx)
		}
	}
	n.opDone()
}

//puno:hot
func (n *node) accessRead(a mem.Addr) {
	l := mem.LineOf(a)
	promoted := n.rmw != nil && n.rmw.PromoteLoad(n.cur.StaticID, n.opIdx)
	e := n.l1.Access(l)
	if promoted {
		n.promotedLoads.put(l, n.opIdx)
	}
	if e != nil {
		if promoted && e.State == cache.Shared {
			// Predicted RMW load with only shared permission: upgrade now.
			n.issue(l, e.LID, true, true, false)
			return
		}
		n.pendEntry, n.pendAddr = e, a
		n.afterCancellableEv(L1HitLatency, nevReadPhase)
		return
	}
	if promoted {
		n.issue(l, 0, true, true, true)
	} else {
		n.issue(l, 0, false, false, true)
	}
}

//puno:hot
func (n *node) accessWrite(a mem.Addr, v uint64) {
	l := mem.LineOf(a)
	e := n.l1.Access(l)
	if e != nil && e.State == cache.Modified {
		n.pendEntry, n.pendAddr, n.pendVal = e, a, v
		n.afterCancellableEv(L1HitLatency, nevWriteDone)
		return
	}
	if e != nil && e.State == cache.Shared {
		n.issue(l, e.LID, true, false, false) // upgrade
		return
	}
	n.issue(l, 0, true, false, true)
}

// issue sends a GETS/GETX to the line's home directory. lid is l's interned
// ID when the caller already holds it (upgrade paths); a miss interns here,
// the line's single first-touch point on the request path.
//
//puno:hot
func (n *node) issue(l mem.Line, lid mem.LineID, isWrite, promoted, needData bool) {
	if lid == 0 {
		lid = n.m.it.Intern(l)
	}
	n.reqSeq++
	home := n.m.home.Home(l)
	// Zeroed and filled in place, like the message below: a literal here is
	// built on the stack and copied, line data and all.
	r := &n.reqBuf
	*r = outstanding{}
	r.id, r.line, r.lid = n.reqSeq, l, lid
	r.isWrite, r.promoted = isWrite, promoted
	r.expected = -1
	n.req = r
	mt := coherence.MsgGETS
	if isWrite {
		mt = coherence.MsgGETX
		n.m.res.TxGETXIssued++
	}
	msg := n.msgTo(mt, l, home)
	msg.LID, msg.Requester, msg.ReqID = lid, n.id, n.reqSeq
	msg.Prio = n.tx.Prio
	msg.IsWrite, msg.NeedData = isWrite, needData
	msg.AvgTxLen = n.txlb.GlobalAverage()
	n.m.send(msg)
}

// msgTo takes a message from the machine's pool, zeroes it, and fills the
// fields every send sets: type, line, and the route from this node to dst.
// The caller writes whatever else the type carries straight into the slot
// and hands it to Machine.send, so a message is written once, where it will
// live.
//
//puno:hot
func (n *node) msgTo(t coherence.MsgType, l mem.Line, dst int) *coherence.Msg {
	msg := n.m.newMsg()
	*msg = coherence.Msg{}
	msg.Type, msg.Line, msg.Src, msg.Dst = t, l, n.id, dst
	return msg
}

// respond is msgTo answering forward f: addressed to its requester and
// tagged with the request's ReqID.
//
//puno:hot
func (n *node) respond(t coherence.MsgType, f *coherence.Msg) *coherence.Msg {
	msg := n.msgTo(t, f.Line, f.Requester)
	msg.Requester, msg.ReqID = f.Requester, f.ReqID
	return msg
}

//puno:hot
func (n *node) commit() {
	n.ovfStreak = 0
	n.fireWakeups()
	n.endATS(false)
	// Anti-train the RMW predictor for promoted loads that never stored
	// (only RMW-Pred promotes, so the list is empty under other schemes).
	for i, l := range n.promotedLoads.lines {
		if !n.tx.InWriteSet(l) {
			n.rmw.ObserveNonRMW(n.cur.StaticID, n.promotedLoads.ops[i])
		}
	}
	cost := n.tx.Commit(htm.DefaultCosts())
	n.afterEv(cost, nevCommitDone)
}

// endATS reports this node's attempt outcome to the ATS scheduler, when the
// scheme has one. If that passes the token to a queued node, the queued
// node's attempt begins here, before the caller schedules anything of its
// own.
//
//puno:hot
func (n *node) endATS(aborted bool) {
	if !n.m.scheme.ats {
		return
	}
	if next := n.m.ats.End(n.id, aborted); next >= 0 {
		w := n.m.nodes[next]
		w.startAttempt(w.atsRetry)
	}
}

// commitDone finishes a commit after its cost has elapsed.
//
//puno:hot
func (n *node) commitDone() {
	now := n.m.eng.Now()
	dynLen := now - n.tx.BeginCycle
	n.txlb.Update(n.cur.StaticID, dynLen)
	n.unpinSets()
	n.m.res.Commits++
	n.m.res.PerNodeCommits[n.id]++
	n.m.res.GoodCycles += uint64(dynLen)
	n.afterEv(n.cur.ThinkCycles+1, nevFetchNext)
}

func (n *node) unpinSets() {
	n.tx.ForEachSetLine(func(l mem.Line, _ bool) {
		if e := n.l1.Lookup(l); e != nil {
			e.Pinned = false
		}
	})
}

// ---- abort flow --------------------------------------------------------

// abortTx tears down the running attempt. Returns the rollback latency.
// Callers that owe a coherence response must schedule it after that
// latency.
//
//puno:hot
func (n *node) abortTx(cause AbortCause, overflow bool) sim.Time {
	if !n.tx.Running() {
		panic(fmt.Sprintf("machine: node %d abort while not running", n.id))
	}
	n.m.res.Aborts++
	n.m.res.PerNodeAborts[n.id]++
	n.m.res.AbortsByCause[cause]++
	n.m.res.DiscardedCycles += uint64(n.m.eng.Now() - n.tx.BeginCycle)

	n.cancelPending()
	n.finishAccess()
	if n.req != nil {
		n.req.abortedLocally = true
	}

	// Restore pre-transaction values into the cached lines immediately
	// (the latency models when the restoration completes). Newest-first, so
	// multiply-written words end at their pre-transaction value.
	for i := n.tx.LogEntries() - 1; i >= 0; i-- {
		entry := n.tx.UndoEntry(i)
		l := mem.LineOf(entry.Addr)
		if e := n.l1.Lookup(l); e != nil {
			e.Data[mem.WordIndex(entry.Addr)] = entry.Old
		}
	}
	lat := n.tx.StartAbort(htm.DefaultCosts(), overflow)
	n.afterEv(lat, nevFinishAbort)
	return lat
}

//puno:hot
func (n *node) finishAbort() {
	n.unpinSets()
	n.tx.FinishAbort()
	n.fireWakeups()
	n.endATS(true)
	if n.req != nil {
		return // drainContinue restarts once the in-flight request settles
	}
	n.scheduleRestart()
}

func (n *node) scheduleRestart() {
	delay := cm.FixedBackoffCycles
	if n.m.scheme.randomRestart {
		delay = cm.RandomRestart(n.rng, n.tx.Attempts)
	}
	n.m.res.RestartWaitCycle += uint64(delay)
	n.afterEv(delay, nevRestartBegin)
}

// ---- request-response collection ---------------------------------------

// handleResponse processes a message addressed to this node as requester.
//
//puno:hot
func (n *node) handleResponse(m *coherence.Msg) {
	r := n.req
	if r == nil || m.ReqID != r.id {
		return // stale response from a superseded request
	}
	switch m.Type {
	case coherence.MsgNackBusy:
		n.req = nil
		if r.abortedLocally {
			n.drainContinue()
			return
		}
		n.backOff(busyRetryDelay + sim.Time(n.rng.Uint64n(uint64(busyRetryJitter))))
		return
	case coherence.MsgData:
		if m.Sole {
			r.soleDone = true
			r.data = m.Data
			r.hasData = true
			if m.AbortedSharer {
				r.abortedSharers++
			}
		} else {
			r.expected = m.AckCount
			r.data = m.Data
			r.hasData = true
		}
	case coherence.MsgAckCount:
		r.expected = m.AckCount
	case coherence.MsgAck:
		r.received++
		if m.AbortedSharer {
			r.abortedSharers++
		}
	case coherence.MsgNack:
		r.received++
		r.sawNack = true
		if m.TEst > r.tEstMax {
			r.tEstMax = m.TEst
		}
		if m.MPBit {
			r.mpSeen = true
			r.mpNode = m.Src
			r.mpPrio = m.Prio
		}
		if m.Sole {
			r.soleDone = true
		}
	default:
		panic(fmt.Sprintf("machine: node %d unexpected response %v", n.id, m.Type))
	}
	if r.soleDone || (r.expected >= 0 && r.received >= r.expected) {
		n.completeRequest()
	}
}

// completeRequest finalizes the outstanding request: classification,
// UNBLOCK, install or retry.
//
//puno:hot
func (n *node) completeRequest() {
	r := n.req
	n.req = nil

	// Fig. 3: each NACKed request that aborted sharers is one
	// false-aborting case; Fig. 2 classification accumulates across the
	// access's retries and is finalized in finishAccess.
	if r.isWrite {
		n.accLive = true
		if r.sawNack {
			n.accNacked = true
			if r.abortedSharers > 0 {
				n.accFalse = true
				n.m.res.bumpFalseAbort(r.abortedSharers)
			}
		} else if r.abortedSharers > 0 {
			n.accResolved = true
		}
	}

	// Home-sourced data whose copy was invalidated in flight is discarded:
	// the directory never blocked for a home-serviced read, so no UNBLOCK
	// is owed. Owner-sourced (Sole) data is always the live copy — the
	// invalidation that set the flag belonged to the service that made that
	// node the owner — so it is installed, and its blocked directory gets
	// its UNBLOCK.
	stale := r.staleData && !r.soleDone
	// Upgrade hazard: our shared copy was invalidated by an earlier request
	// while this dataless upgrade was in flight, so there is nothing to
	// install. The request fails (the directory restores its pre-request
	// state) instead of taking ownership of garbage.
	lost := !r.sawNack && !r.hasData && n.l1.Lookup(r.line) == nil

	if r.abortedLocally {
		switch {
		case r.sawNack:
			n.m.res.Nacks++
			n.sendUnblock(r, false)
		case stale:
		case lost:
			n.sendUnblock(r, false)
		default:
			// The protocol completed, so take the copy (unpinned); the
			// data is untouched.
			n.fill(r)
		}
		n.finishAccess()
		n.drainContinue()
		return
	}

	if r.sawNack {
		n.m.res.Nacks++
		n.sendUnblock(r, false)
		// Backoff, then re-run the access (it may hit by then).
		delay := cm.FixedBackoffCycles
		if n.m.scheme.notify {
			delay = cm.NotifiedWait(r.tEstMax, n.m.guard, n.m.scheme.maxWait)
		}
		if r.tEstMax > 0 {
			n.m.res.NotifiedBackoffs++
		}
		n.accessRetries++
		n.m.res.Retries++
		n.m.res.BackoffCycles += uint64(delay)
		n.backOff(delay)
		return
	}
	if stale {
		n.accessRefetches++
		n.backOff(busyRetryDelay)
		return
	}
	if lost {
		// Retry as a full fetch.
		n.sendUnblock(r, false)
		n.m.res.Retries++
		n.backOff(busyRetryDelay)
		return
	}
	e := n.fill(r)
	if e == nil {
		// Transactional overflow: every way pinned. Abort with the penalty.
		n.overflowAbort()
		return
	}

	// Resume the access that needed this line.
	n.finishAccess()
	op := n.cur.Ops[n.opIdx]
	n.accessRetries = 0
	n.accessRefetches = 0
	switch {
	case !r.isWrite || r.promoted:
		// A load (possibly promoted to exclusive).
		if r.promoted {
			e.State = cache.Modified
		}
		n.readPhaseDone(e, op.Addr)
	default:
		v := op.Value
		if op.Kind == OpIncr {
			v = n.rdVal + 1
		}
		n.writeDone(e, op.Addr, v)
	}
}

// fill installs the line r fetched and unblocks its directory. When every
// way of the set is pinned it installs nothing and returns nil, and the copy
// goes where no data is lost and no owner is left without a line: data from
// home is still in the L2, so the request fails; owner data completes the
// request, and a GETX's copy (the only one left) is written straight back
// as a Modified victim, while a GETS's is dropped (the old owner wrote the
// line back and stays listed with its shared copy).
//
//puno:hot
func (n *node) fill(r *outstanding) *cache.Entry {
	e := n.install(r)
	if e == nil && !r.soleDone {
		n.sendUnblock(r, false)
		return nil
	}
	n.sendUnblock(r, true)
	if e == nil && r.isWrite {
		n.handleEviction(cache.Entry{Line: r.line, LID: r.lid, State: cache.Modified, Data: r.data})
	}
	return e
}

// install caches the line r fetched: a resident copy is upgraded in place
// (a GETX takes it Modified), otherwise the line is inserted and the
// victim it displaces is evicted. It returns nil, inserting nothing, when
// every way of the set is pinned.
//
//puno:hot
func (n *node) install(r *outstanding) *cache.Entry {
	if e := n.l1.Lookup(r.line); e != nil {
		if r.isWrite {
			e.State = cache.Modified
		}
		return e
	}
	st := cache.Shared
	if r.isWrite {
		st = cache.Modified
	}
	e, evicted, was := n.l1.InsertID(r.line, r.lid, st, r.data)
	if e != nil && was {
		n.handleEviction(evicted)
	}
	return e
}

// overflowAbort aborts the attempt whose fill found every way of the set
// pinned, and fails the run once the same instance has overflowed eight
// times running (its footprint cannot fit). Cold, and kept out of
// completeRequest so the hot path builds no error.
func (n *node) overflowAbort() {
	n.ovfStreak++
	if n.ovfStreak >= 8 {
		n.m.fail(fmt.Errorf("machine: node %d static tx %d overflows the L1 on every attempt (footprint does not fit)", n.id, n.cur.StaticID))
		return
	}
	n.abortTx(CauseOverflow, true)
}

// drainContinue runs when a request our transaction outlived settles. If
// the rollback has finished, finishAbort left the restart to us; otherwise
// finishAbort will find no request and schedule it.
func (n *node) drainContinue() {
	if n.tx.Status == htm.StatusAborted {
		n.scheduleRestart()
	}
}

func (n *node) reissue() {
	n.backingOff = false
	n.execOp()
}

//puno:hot
func (n *node) sendUnblock(r *outstanding, success bool) {
	if !r.isWrite && !r.soleDone {
		return // GETS satisfied at the home node: the directory never blocked
	}
	msg := n.msgTo(coherence.MsgUnblock, r.line, n.m.home.Home(r.line))
	msg.LID, msg.Requester, msg.ReqID = r.lid, n.id, r.id
	msg.Success, msg.AbortedSharers = success, r.abortedSharers
	if r.mpSeen {
		msg.MPBit = true
		msg.MPNode = r.mpNode
		msg.Prio = r.mpPrio
	}
	n.m.send(msg)
}

// handleEviction processes a victim displaced from the L1.
func (n *node) handleEviction(v cache.Entry) {
	if v.Pinned {
		panic(fmt.Sprintf("machine: node %d evicted pinned line %v", n.id, v.Line))
	}
	if v.State != cache.Modified {
		return // silent eviction of clean lines
	}
	// Retain the data until the directory acknowledges the writeback.
	n.wbWait.put(v.Line, v.Data)
	msg := n.msgTo(coherence.MsgPUTX, v.Line, n.m.home.Home(v.Line))
	msg.LID, msg.Requester = v.LID, n.id
	msg.Data = v.Data
	n.m.send(msg)
}

// ---- forward (sharer/owner) handling ------------------------------------

// handleForward services a directory-forwarded request against this node's
// cache and transactional state.
//
//puno:hot
func (n *node) handleForward(f *coherence.Msg) {
	l := f.Line
	if n.tx.Running() && n.tx.ConflictsWithID(l, f.LID, f.IsWrite) {
		if htm.Older(n.tx.Prio, n.id, f.Prio, f.Requester) {
			// We win: NACK, with a T_est notification when the scheme
			// enables it (a correctly predicted unicast always notifies).
			n.subscribeWakeup(l, f.Requester)
			n.nack(f, n.tEst(), false, true)
			return
		}
		if f.UBit {
			// Misprediction: we would lose, but granting a unicast request
			// would bypass the other sharers. NACK conservatively with MP
			// feedback carrying our true (younger) priority (Sec. III-C).
			n.nack(f, 0, true, true)
			return
		}
		// We lose: abort, then grant after rollback completes.
		cause := CauseTxGETS
		if f.IsWrite {
			cause = CauseTxGETX
		}
		lat := n.abortTx(cause, false)
		// The dispatcher recycles f when we return; stash a copy for the
		// deferred grant. Only this path defers, and abortTx cannot run
		// again before the grant fires, so one stash slot suffices.
		n.grantMsg = *f
		n.afterEv(lat, nevGrantAborted)
		return
	}
	if n.tx.Status == htm.StatusAborting && n.tx.InWriteSetID(l, f.LID) {
		// Mid-rollback: the speculative data is not yet restored. NACK;
		// flag a misprediction on unicasts so the stale priority is purged
		// (the dying transaction will not nack this line again). The
		// rollback completes shortly, so the waiter subscribes for the
		// wakeup that finishAbort fires.
		n.subscribeWakeup(l, f.Requester)
		n.nack(f, 0, f.UBit, false)
		return
	}
	if f.UBit {
		// Unicast to a node with no conflicting transaction: the
		// prediction was stale. NACK with MP feedback — granting is
		// unsafe because the other sharers kept their copies. Report
		// NoPriority ("I will not nack this line"): the node may still be
		// on the directory's conservative sharer list without holding the
		// line, and refreshing its old retained priority would make the
		// predictor re-pick it on every retry.
		n.nack(f, 0, true, false)
		return
	}
	n.grant(f, false)
}

// tEst computes the notification payload: this transaction's estimated
// remaining cycles, when the scheme enables notification.
func (n *node) tEst() sim.Time {
	if !n.m.scheme.notify {
		return 0
	}
	elapsed := n.m.eng.Now() - n.tx.BeginCycle
	return n.txlb.EstimateRemaining(n.cur.StaticID, elapsed)
}

// nack rejects a forward. conflicting reports whether this node holds a
// genuine conflict on the line: a conflicting misprediction NACK carries
// this node's true current priority so the directory can refresh its stale
// P-Buffer entry (via the requester's UNBLOCK), while a non-conflicting one
// carries NoPriority ("I will not nack this line"), invalidating it.
//
//puno:hot
func (n *node) nack(f *coherence.Msg, tEst sim.Time, mp bool, conflicting bool) {
	prio := htm.NoPriority
	if conflicting && n.tx.InFlight() {
		prio = n.tx.Prio
	}
	msg := n.respond(coherence.MsgNack, f)
	msg.Prio, msg.TEst = prio, tEst
	msg.MPBit, msg.UBit = mp, f.UBit
	msg.Sole = f.UBit || n.isOwnerResponse(f.Line)
	n.m.send(msg)
}

// isOwnerResponse reports whether this node is responding as the line's
// exclusive owner (so its response is the only one the requester gets).
func (n *node) isOwnerResponse(l mem.Line) bool {
	if n.wbWait.has(l) {
		return true
	}
	e := n.l1.Lookup(l)
	return e != nil && e.State == cache.Modified
}

// grant satisfies a forward: invalidation ACK from a sharer, or a
// cache-to-cache transfer from the owner. aborted marks responses that
// followed a self-abort (counted by the requester for Figs. 2/3).
//
//puno:hot
func (n *node) grant(f *coherence.Msg, aborted bool) {
	l := f.Line
	if f.IsWrite && n.req != nil && n.req.line == l && !n.req.isWrite {
		// We are honouring an invalidation while our own read of the same
		// line is in flight: the data that arrives may predate the write,
		// so it must be discarded. (Set only on granted forwards — a
		// NACKed request invalidates nothing, and flagging it would let a
		// repeatedly NACKed unicast writer starve our pending read.)
		n.req.staleData = true
	}
	if data, ok := n.wbWait.get(l); ok {
		// Our PUTX raced with this forward; serve it from the retained
		// copy and drop the line (the directory will answer WBStale).
		n.wbWait.del(l)
		n.sendOwnerData(f, &data, aborted)
		if !f.IsWrite {
			// A read downgrade blocks the directory until the writeback
			// copy arrives; send it even though our cached line is gone.
			n.sendWBData(f, &data)
		}
		return
	}
	e := n.l1.Lookup(l)
	if e == nil {
		if !f.IsWrite {
			// FwdGETS reaches us only as the registered owner, and an
			// owner's copy leaves only through a forward (directory
			// serialized) or a writeback (retained in wbWait until WBAck),
			// so a missing line here is protocol drift.
			panic(fmt.Sprintf("machine: node %d got FwdGETS for %v but holds no copy", n.id, l))
		}
		// Silently evicted shared line: acknowledge the invalidation.
		n.sendAck(f, aborted)
		return
	}
	isOwner := e.State == cache.Modified
	if f.IsWrite {
		if isOwner {
			n.sendOwnerData(f, &e.Data, aborted)
		} else {
			n.sendAck(f, aborted)
		}
		n.l1.Invalidate(l)
		return
	}
	// FwdGETS reaches us only as owner: downgrade, send data to the
	// requester and a writeback copy to the directory.
	if !isOwner {
		panic(fmt.Sprintf("machine: node %d got FwdGETS without ownership of %v", n.id, l))
	}
	e.State = cache.Shared
	n.sendOwnerData(f, &e.Data, aborted)
	n.sendWBData(f, &e.Data)
}

// sendOwnerData is the owner's cache-to-cache transfer to f's requester: the
// only response that request gets (Sole).
//
//puno:hot
func (n *node) sendOwnerData(f *coherence.Msg, data *mem.LineData, aborted bool) {
	msg := n.respond(coherence.MsgData, f)
	msg.Data = *data
	msg.Sole, msg.AbortedSharer = true, aborted
	n.m.send(msg)
}

// sendWBData sends the home directory the writeback copy a read downgrade
// (FwdGETS f) blocks on.
//
//puno:hot
func (n *node) sendWBData(f *coherence.Msg, data *mem.LineData) {
	msg := n.msgTo(coherence.MsgWBData, f.Line, n.m.home.Home(f.Line))
	msg.LID = f.LID
	msg.Data = *data
	n.m.send(msg)
}

// sendAck acknowledges invalidation f to its requester; aborted marks an ACK
// that followed a self-abort.
//
//puno:hot
func (n *node) sendAck(f *coherence.Msg, aborted bool) {
	msg := n.respond(coherence.MsgAck, f)
	msg.AbortedSharer = aborted
	n.m.send(msg)
}

// subscribeWakeup (PUNO-Push) records a NACKed requester to ping when this
// transaction finishes. The table is bounded like the hardware would be:
// at most 8 lines with 4 waiters each.
func (n *node) subscribeWakeup(l mem.Line, requester int) {
	if !n.m.scheme.push {
		return
	}
	n.wakeupSubs.subscribe(l, requester)
}

// fireWakeups (PUNO-Push) pings every recorded waiter: this node's
// transaction has committed or finished aborting, so its NACKs no longer
// stand and the waiters should retry immediately instead of sleeping out
// their estimates. This implements the paper's future-work item of
// "performing coherence actions speculatively to accelerate
// inter-transaction communication". The table keeps lines and waiters
// sorted ascending, so this walk reproduces the send order the NoC's
// per-cycle serialization makes part of the deterministic trajectory.
func (n *node) fireWakeups() {
	if n.wakeupSubs.empty() {
		return
	}
	if TestHookReverseWakeups {
		for i := n.wakeupSubs.n - 1; i >= 0; i-- {
			n.fireWakeupLine(i)
		}
	} else {
		for i := 0; i < n.wakeupSubs.n; i++ {
			n.fireWakeupLine(i)
		}
	}
	n.wakeupSubs.clear()
}

// TestHookReverseWakeups, when set, makes fireWakeups walk its line table
// in descending instead of ascending order — the unordered-iteration bug
// shape the wakeup table's sorted invariant exists to prevent. It changes
// only the relative send order of same-cycle wakeups, so the run stays
// legal but follows a divergent trajectory: exactly the signal the event
// differ exists to catch. Tests only; must be false in any real run.
var TestHookReverseWakeups bool

// fireWakeupLine pings every waiter recorded for the i'th subscribed line.
func (n *node) fireWakeupLine(i int) {
	l := n.wakeupSubs.lines[i]
	for j := 0; j < n.wakeupSubs.nw[i]; j++ {
		dst := n.wakeupSubs.waiters[i][j]
		msg := n.msgTo(coherence.MsgWakeup, l, dst)
		msg.Requester = dst
		n.m.send(msg)
	}
}

// handleWakeup retries the current access immediately when a wakeup names
// the line this node is backing off on; stale wakeups are dropped.
func (n *node) handleWakeup(m *coherence.Msg) {
	// A node backs off only in the middle of an access, so the current op
	// is a memory op.
	if !n.backingOff || mem.LineOf(n.cur.Ops[n.opIdx].Addr) != m.Line {
		return
	}
	n.cancelPending()
	n.execOp()
}

// handleWB processes writeback acknowledgements.
func (n *node) handleWB(m *coherence.Msg) {
	switch m.Type {
	case coherence.MsgWBAck:
		n.wbWait.del(m.Line)
	case coherence.MsgWBStale:
		// A forward is (or was) in flight and will consume the retained
		// copy; nothing to do — grant() removes the entry when it arrives.
	default:
		panic(fmt.Sprintf("machine: node %d unexpected WB message %v", n.id, m.Type))
	}
}
