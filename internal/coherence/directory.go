package coherence

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// DirState is a directory entry's stable state.
type DirState uint8

// Directory stable states.
const (
	DirInvalid  DirState = iota // no cached copies
	DirShared                   // one or more read-only copies
	DirModified                 // exactly one exclusive/modified copy
)

// String implements fmt.Stringer.
func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "I"
	case DirShared:
		return "S"
	case DirModified:
		return "M"
	default:
		return fmt.Sprintf("DirState(%d)", uint8(s))
	}
}

// Env is the directory controller's view of its node: the clock, the
// outgoing message port, and the local L2 bank. Send delivers msg after
// delay cycles of local processing plus network latency.
type Env interface {
	Now() sim.Time
	Send(delay sim.Time, msg *Msg)
	// NewMsg returns a message for the directory to fill and hand to Send.
	// Implementations may recycle delivered messages through a pool, so
	// fields are NOT zeroed; the directory zeroes every message itself and
	// writes its fields in place (msgTo) before sending.
	NewMsg() *Msg
	// Interner is the machine-wide line interner the directory indexes its
	// dense entry table by. Returning nil makes the directory run a private
	// interner (isolated tests).
	Interner() *mem.Interner
	// LineData returns the L2/memory image of l (whose interned ID is id)
	// and the access latency (L2 hit latency, or the memory latency on a
	// cold miss).
	LineData(l mem.Line, id mem.LineID) (mem.LineData, sim.Time)
	// StoreLine updates the L2 image (writebacks, downgrades).
	StoreLine(l mem.Line, id mem.LineID, d mem.LineData)
}

// Predictor is the directory-side hook PUNO plugs into. A nil Predictor
// yields the baseline protocol: every transactional GETX to a shared line
// is multicast to all sharers.
type Predictor interface {
	// ObserveRequest records the {node, priority} pair carried by an
	// incoming transactional request (P-Buffer update), plus the
	// requester's average transaction length hint.
	ObserveRequest(node int, prio htm.Priority, avgTxLen sim.Time)
	// PredictUnicast decides whether a transactional GETX from reqNode
	// with priority reqPrio against the given sharers should be unicast,
	// and to which sharer.
	PredictUnicast(l mem.Line, sharers []int, reqNode int, reqPrio htm.Priority) (dest int, ok bool)
	// UpdateUD recomputes the line's unicast-destination pointer from the
	// current sharer list (off the critical path, after servicing).
	UpdateUD(l mem.Line, sharers []int)
	// Misprediction handles UNBLOCK MP feedback: the stale priority that
	// caused a wrong unicast is replaced by the mispredicted sharer's
	// current priority (carried back on the NACK and UNBLOCK), or
	// invalidated when the sharer was not in a transaction
	// (prio == htm.NoPriority).
	Misprediction(l mem.Line, node int, prio htm.Priority)
	// UnicastResolved reports the outcome of a completed unicast service:
	// correct=true when the predicted sharer NACKed as predicted (no MP
	// feedback). Drives the predictor's confidence estimate.
	UnicastResolved(correct bool)
	// MulticastResolved reports the outcome of a completed multicast
	// transactional GETX service: falseAbort=true when the request failed
	// after aborting sharers. Drives the predictor's benefit estimate.
	MulticastResolved(falseAbort bool)
	// DecisionLatency is the extra cycles the directory spends consulting
	// the predictor on the forward path (P-Buffer read + compare).
	DecisionLatency() sim.Time
}

// Stats aggregates directory-side measurements.
type Stats struct {
	Requests        uint64 // GETS+GETX accepted (not busy-nacked)
	BusyNacks       uint64 // requests rejected because the entry's queue was full
	TxGETX          uint64 // transactional GETX accepted
	UnicastForwards uint64 // TxGETX serviced by predictive unicast
	MulticastFwds   uint64 // invalidations/forwards sent on multicast paths
	Mispredictions  uint64 // MP feedback received
	BusyCycles      uint64 // total cycles entries spent blocked
	TxGETXBusy      uint64 // blocked cycles while servicing transactional GETX (Fig. 12)
}

// nodeSetWords sizes the sharer bitset; MaxNodes = 64*nodeSetWords is the
// largest machine the directory supports (16x16 mesh at the current width).
const nodeSetWords = 4

// MaxNodes is the largest node count the sharer tracking supports.
const MaxNodes = 64 * nodeSetWords

// nodeSet is a fixed-width bitset over node IDs. A value type (not a
// slice) so the busy-service save/restore (savedShare = sharers) stays a
// plain copy and entries embed their sets without a pointer chase.
type nodeSet [nodeSetWords]uint64

// oneNode returns the set holding only node n.
func oneNode(n int) nodeSet {
	var s nodeSet
	s.add(n)
	return s
}

func (s *nodeSet) add(n int)      { s[n>>6] |= 1 << uint(n&63) }
func (s *nodeSet) has(n int) bool { return s[n>>6]&(1<<uint(n&63)) != 0 }

type dirEntry struct {
	line    mem.Line   // the line this slot currently serves
	lid     mem.LineID // line's interned ID (index into Directory.idx)
	state   DirState
	sharers nodeSet
	owner   int

	busy       bool
	busySince  sim.Time
	busyTxGETX bool
	busyGETX   bool
	busyGETS   bool
	requester  int
	unicastTo  int // -1 when not a unicast service
	waitWB     bool
	gotWB      bool
	gotUnblock bool
	savedState DirState
	savedShare nodeSet
	savedOwner int

	// The UNBLOCK payload tryComplete needs once the writeback (if any) has
	// also arrived: three fields, not a copy of the message.
	unblockOK      bool // Success
	unblockMP      bool // MPBit
	unblockAborted int  // AbortedSharers

	// pending queues requests that arrived while the entry was busy; they
	// are serviced FIFO when the entry unblocks. Without this, fixed-period
	// retry loops can phase-lock and starve an older transaction behind a
	// younger requester's retries — a deadlock cycle through the busy
	// entry that NACK priority ordering alone cannot break. Messages are
	// parked by value so the delivered *Msg can return to its pool the
	// moment Handle returns, and the queue's capacity is reused.
	pending []Msg
}

// dirLatency is the directory controller's fixed delay on every message it
// sends. No run varies it, so like the rest of the Table II timing it is a
// constant, not a knob.
const dirLatency sim.Time = 1

// Directory is the home-node coherence controller for the lines mapping to
// one bank. It is driven entirely by Handle; all outgoing effects go
// through its Env.
type Directory struct {
	node  int
	nodes int
	env   Env
	pred  Predictor

	// QueueCap bounds the per-entry pending-request queue; beyond it the
	// directory falls back to NackBusy.
	QueueCap int

	// The entry store is a dense LineID-indexed table: idx maps a LineID to
	// its slot in slab (+1 encoded; 0 = no entry), slab holds dirEntry
	// values contiguously, and free recycles slots whose line returned to
	// Invalid with nothing queued (clean PUTX), so long runs that sweep
	// many lines do not grow the entry population monotonically. No Go map
	// sits on the request path.
	it   *mem.Interner
	idx  []int32
	slab []dirEntry
	free []int32
	// sharerScratch backs the sharer lists the hot request paths build;
	// callees (forward loops, the predictor) never retain the slice.
	sharerScratch []int
	stats         Stats

	// probe, when non-nil, observes forwarding decisions (unicast vs
	// multicast vs busy-nack). Set by the machine after construction/Reset;
	// survives Reset so the owner controls its lifetime explicitly.
	probe probe.Sink
}

// NewDirectory returns the controller for home node `node` in a machine of
// `nodes` nodes. pred may be nil (baseline multicast).
func NewDirectory(node, nodes int, env Env, pred Predictor) *Directory {
	if nodes > MaxNodes {
		panic(fmt.Sprintf("coherence: %d nodes exceeds the %d-node sharer bitset", nodes, MaxNodes))
	}
	it := env.Interner()
	if it == nil {
		it = mem.NewInterner()
	}
	return &Directory{
		node:     node,
		nodes:    nodes,
		env:      env,
		pred:     pred,
		it:       it,
		QueueCap: nodes,
	}
}

// Reset returns the controller to the state NewDirectory would produce for
// the same node/nodes/env, swapping in pred (the predictor is rebuilt per
// run). The entry slab and slot index keep their capacity (truncated, with
// each slot's pending-queue array retained for reuse), so a reused
// directory repopulates without allocating; slot assignment is by arrival
// order, which is deterministic by construction. QueueCap reverts to its
// construction default. The interner is shared machine state and is reset
// by its owner, not here.
func (d *Directory) Reset(pred Predictor) {
	d.pred = pred
	d.QueueCap = d.nodes
	d.slab = d.slab[:0]
	d.free = d.free[:0]
	d.idx = d.idx[:0]
	d.stats = Stats{}
}

// SetProbe installs (or, with nil, removes) the event sink observing this
// directory's forwarding decisions.
func (d *Directory) SetProbe(s probe.Sink) { d.probe = s }

// emit reports one forwarding decision when a probe is installed.
//
//puno:hot
func (d *Directory) emit(kind probe.Kind, lid mem.LineID, n, requester int, reqID uint64) {
	if d.probe == nil {
		return
	}
	d.probe.Emit(probe.Event{
		Cycle: d.env.Now(), Arg: probe.PackDir(n, requester, reqID),
		Line: lid, Node: int16(d.node), Kind: kind,
	})
}

// Stats returns a copy of the accumulated statistics.
func (d *Directory) Stats() Stats { return d.stats }

// BusyLines returns the number of entries currently blocked (used by the
// machine's quiescence check). Free-listed slots are never busy (recycling
// requires an idle entry), so scanning the whole slab is safe.
func (d *Directory) BusyLines() int {
	n := 0
	for i := range d.slab {
		if d.slab[i].busy {
			n++
		}
	}
	return n
}

// BusyInfo describes one blocked entry for diagnostics.
type BusyInfo struct {
	Line       mem.Line
	Requester  int
	IsGETX     bool
	Since      sim.Time
	WaitWB     bool
	GotWB      bool
	GotUnblock bool
	UnicastTo  int
	Pending    int
}

// BusyEntries returns diagnostics for every blocked entry, in ascending
// line order so hang dumps are stable across runs.
func (d *Directory) BusyEntries() []BusyInfo {
	var out []BusyInfo
	for i := range d.slab {
		e := &d.slab[i]
		if !e.busy {
			continue
		}
		out = append(out, BusyInfo{
			Line: e.line, Requester: e.requester, IsGETX: e.busyGETX, Since: e.busySince,
			WaitWB: e.waitWB, GotWB: e.gotWB, GotUnblock: e.gotUnblock,
			UnicastTo: e.unicastTo, Pending: len(e.pending),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// State reports the stable state, sharer list, and owner of a line
// (invariant checkers and tests).
func (d *Directory) State(l mem.Line) (DirState, []int, int) {
	e := d.lookup(d.it.Lookup(l))
	if e == nil {
		return DirInvalid, nil, -1
	}
	return e.state, d.sharerList(e.sharers, -1), e.owner
}

// lookup returns the live entry for lid, or nil. Purely index arithmetic:
// the per-message map lookup the old entries map paid is gone.
//
//puno:hot
func (d *Directory) lookup(lid mem.LineID) *dirEntry {
	if i := int(lid); i > 0 && i <= len(d.idx) {
		if s := d.idx[i-1]; s != 0 {
			return &d.slab[s-1]
		}
	}
	return nil
}

// entry returns the entry for (l, lid), creating it in the dense slab on
// first touch. Slots come from the free list, then from retained slab
// capacity, then from growth; a recycled slot's pending-queue array is
// reused. Callers must not hold an entry pointer across a call that can
// create a different line's entry (slab growth moves the values); the
// handlers create at most one entry, at dispatch, so this never happens.
//
//puno:hot
func (d *Directory) entry(l mem.Line, lid mem.LineID) *dirEntry {
	if n := int(lid); n > len(d.idx) {
		d.idx = mem.Extend(d.idx, n)
	}
	if s := d.idx[lid-1]; s != 0 {
		return &d.slab[s-1]
	}
	var s int32
	switch {
	case len(d.free) > 0:
		s = d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
	case len(d.slab) < cap(d.slab):
		s = int32(len(d.slab))
		d.slab = d.slab[:len(d.slab)+1]
	default:
		d.slab = append(d.slab, dirEntry{})
		s = int32(len(d.slab) - 1)
	}
	e := &d.slab[s]
	*e = dirEntry{line: l, lid: lid, state: DirInvalid, owner: -1, unicastTo: -1, pending: e.pending[:0]}
	d.idx[lid-1] = s + 1
	return e
}

// recycleIfIdle drops an entry that has returned to the directory's
// default state (Invalid, not busy, nothing parked) and free-lists its
// slot for the next cold line. State() on a dropped line reports
// DirInvalid, which is exactly what the entry said.
//
//puno:hot
func (d *Directory) recycleIfIdle(e *dirEntry) {
	if e.busy || e.state != DirInvalid || len(e.pending) > 0 {
		return
	}
	s := d.idx[e.lid-1]
	d.idx[e.lid-1] = 0
	d.free = append(d.free, s-1)
}

// sharerList builds a fresh sharer slice (diagnostic paths: State,
// BusyEntries callers). Hot paths use sharersScratch instead.
func (d *Directory) sharerList(set nodeSet, exclude int) []int {
	var out []int
	for w, msk := range set {
		base := w << 6
		for ; msk != 0; msk &= msk - 1 {
			if n := base + bits.TrailingZeros64(msk); n != exclude {
				out = append(out, n)
			}
		}
	}
	return out
}

// sharersScratch builds the sharer list into the directory's reusable
// scratch buffer. The result is only valid until the next call and must
// not be retained by callees (the predictor copies what it needs).
// Iterating set bits directly (rather than scanning all node positions)
// keeps the cost proportional to the sharer count, which is usually 0-2.
//
//puno:hot
func (d *Directory) sharersScratch(set nodeSet, exclude int) []int {
	out := d.sharerScratch[:0]
	for w, msk := range set {
		base := w << 6
		for ; msk != 0; msk &= msk - 1 {
			if n := base + bits.TrailingZeros64(msk); n != exclude {
				out = append(out, n)
			}
		}
	}
	d.sharerScratch = out
	return out
}

// Handle processes one incoming message addressed to this directory.
func (d *Directory) Handle(m *Msg) {
	if m.LID == 0 {
		// Senders inside the machine always carry the interned ID; this
		// interns on behalf of isolated-test callers (and any genuinely
		// first-touch message), so every handler below can index densely.
		m.LID = d.it.Intern(m.Line)
	}
	switch m.Type {
	case MsgGETS:
		d.handleGETS(m)
	case MsgGETX:
		d.handleGETX(m)
	case MsgUnblock:
		d.handleUnblock(m)
	case MsgWBData:
		d.handleWBData(m)
	case MsgPUTX:
		d.handlePUTX(m)
	default:
		panic(fmt.Sprintf("coherence: directory %d got unexpected %v", d.node, m.Type))
	}
}

func (d *Directory) observe(m *Msg) {
	if d.pred != nil && m.IsTx {
		d.pred.ObserveRequest(m.Src, m.Prio, m.AvgTxLen)
	}
}

// msgTo takes a pooled message from the environment, zeroes it, and fills
// the fields every directory send sets: type, the line of the message m being
// answered, and the route from this bank to dst. The caller writes whatever
// else the type carries straight into the slot and hands it to env.Send, so
// a message is written once, where it will live.
//
//puno:hot
func (d *Directory) msgTo(t MsgType, m *Msg, dst int) *Msg {
	msg := d.env.NewMsg()
	*msg = Msg{}
	msg.Type, msg.Line, msg.LID = t, m.Line, m.LID
	msg.Src, msg.Dst = d.node, dst
	return msg
}

// reply is msgTo addressed to request m's sender and tagged with its ReqID:
// the header of every response the requester collects.
//
//puno:hot
func (d *Directory) reply(t MsgType, m *Msg) *Msg {
	msg := d.msgTo(t, m, m.Src)
	msg.Requester, msg.ReqID = m.Src, m.ReqID
	return msg
}

// sendData answers request m with the line's L2 image and the number of
// sharer responses the requester must still collect.
//
//puno:hot
func (d *Directory) sendData(extra sim.Time, m *Msg, ackCount int) {
	data, lat := d.env.LineData(m.Line, m.LID)
	msg := d.reply(MsgData, m)
	msg.Data, msg.AckCount = data, ackCount
	d.env.Send(dirLatency+extra+lat, msg)
}

// sendAckCount answers a dataless upgrade with its response count alone.
//
//puno:hot
func (d *Directory) sendAckCount(extra sim.Time, m *Msg, ackCount int) {
	msg := d.reply(MsgAckCount, m)
	msg.AckCount = ackCount
	d.env.Send(dirLatency+extra, msg)
}

// forward relays request m to dst (the owner, or a sharer to invalidate),
// carrying the requester's identity and transactional metadata so dst can
// answer the requester directly. ubit marks a predictive unicast.
//
//puno:hot
func (d *Directory) forward(t MsgType, extra sim.Time, m *Msg, dst int, ubit bool) {
	msg := d.msgTo(t, m, dst)
	msg.Requester, msg.ReqID = m.Src, m.ReqID
	msg.IsTx, msg.Prio = m.IsTx, m.Prio
	msg.IsWrite, msg.UBit = t == MsgFwdGETX, ubit
	d.env.Send(dirLatency+extra, msg)
}

func (d *Directory) nackBusy(m *Msg) {
	d.stats.BusyNacks++
	d.emit(probe.KindDirBusyNack, m.LID, 0, m.Src, m.ReqID)
	d.env.Send(dirLatency, d.reply(MsgNackBusy, m))
}

// park queues a copy of the request on a busy entry, or NackBusy-rejects
// it when the queue is full.
//
//puno:hot
func (d *Directory) park(e *dirEntry, m *Msg) {
	if len(e.pending) >= d.QueueCap {
		d.nackBusy(m)
		return
	}
	e.pending = append(e.pending, *m)
}

//puno:hot
func (d *Directory) handleGETS(m *Msg) {
	d.observe(m)
	e := d.entry(m.Line, m.LID)
	if e.busy {
		d.park(e, m)
		return
	}
	d.stats.Requests++
	switch e.state {
	case DirInvalid, DirShared:
		// Serviced entirely at the home node: read L2, add sharer, reply.
		e.state = DirShared
		e.sharers.add(m.Src)
		d.sendData(0, m, 0)
		d.updateUD(e, m.Line)
	case DirModified:
		// Forward to the owner; it supplies data to the requester and a
		// writeback copy to us. Blocked until WBData + UNBLOCK.
		d.beginBusy(e, m, false)
		e.waitWB = true
		d.forward(MsgFwdGETS, 0, m, e.owner, false)
	}
}

//puno:hot
func (d *Directory) handleGETX(m *Msg) {
	d.observe(m)
	e := d.entry(m.Line, m.LID)
	if e.busy {
		// Writes are rejected rather than parked: a failed GETX retries
		// through the requester's backoff policy anyway, and parking it
		// would hand contended lines to writers with perfect promptness,
		// hiding the polling cost the contention-management schemes
		// differ on. Reads are parked (handleGETS) because a starved read
		// can deadlock the system through the busy-entry wait edge.
		d.nackBusy(m)
		return
	}
	d.stats.Requests++
	if m.IsTx {
		d.stats.TxGETX++
	}
	switch e.state {
	case DirInvalid:
		d.beginBusy(e, m, true)
		d.sendData(0, m, 0)
	case DirShared:
		d.beginBusy(e, m, true)
		targets := d.sharersScratch(e.sharers, m.Src)
		if len(targets) == 0 {
			// Requester is the only sharer (upgrade) or the list was empty.
			d.grantNoSharers(m)
			return
		}
		if d.pred != nil && m.IsTx {
			if dest, ok := d.pred.PredictUnicast(m.Line, targets, m.Src, m.Prio); ok {
				// Predictive unicast: only the predicted nacker sees the
				// request. Extra DecisionLatency on the forward path.
				d.stats.UnicastForwards++
				e.unicastTo = dest
				d.emit(probe.KindDirUnicast, m.LID, dest, m.Src, m.ReqID)
				d.forward(MsgFwdGETX, d.pred.DecisionLatency(), m, dest, true)
				return
			}
		}
		// Multicast: invalidate every sharer; requester collects responses.
		extra := sim.Time(0)
		if d.pred != nil && m.IsTx {
			extra = d.pred.DecisionLatency()
		}
		d.stats.MulticastFwds += uint64(len(targets))
		d.emit(probe.KindDirMulticast, m.LID, len(targets), m.Src, m.ReqID)
		for _, t := range targets {
			d.forward(MsgFwdGETX, extra, m, t, false)
		}
		if m.NeedData || !e.sharers.has(m.Src) {
			d.sendData(extra, m, len(targets))
		} else {
			d.sendAckCount(extra, m, len(targets))
		}
	case DirModified:
		d.beginBusy(e, m, true)
		d.forward(MsgFwdGETX, 0, m, e.owner, false)
	}
}

// grantNoSharers completes a GETX that needs no invalidations.
func (d *Directory) grantNoSharers(m *Msg) {
	if m.NeedData {
		d.sendData(0, m, 0)
		return
	}
	d.sendAckCount(0, m, 0)
}

func (d *Directory) beginBusy(e *dirEntry, m *Msg, isGETX bool) {
	e.busy = true
	e.busySince = d.env.Now()
	e.busyGETX = isGETX
	e.busyGETS = !isGETX
	e.busyTxGETX = isGETX && m.IsTx
	e.requester = m.Src
	e.unicastTo = -1
	e.waitWB = false
	e.gotWB = false
	e.gotUnblock = false
	e.savedState = e.state
	e.savedShare = e.sharers
	e.savedOwner = e.owner
}

//puno:hot
func (d *Directory) handleUnblock(m *Msg) {
	e := d.entry(m.Line, m.LID)
	if !e.busy {
		panic(fmt.Sprintf("coherence: UNBLOCK for non-busy line %v at dir %d", m.Line, d.node))
	}
	if m.Src != e.requester {
		panic(fmt.Sprintf("coherence: UNBLOCK from %d but busy requester is %d", m.Src, e.requester))
	}
	e.gotUnblock = true
	e.unblockOK, e.unblockMP, e.unblockAborted = m.Success, m.MPBit, m.AbortedSharers
	if m.MPBit && d.pred != nil {
		d.stats.Mispredictions++
		d.pred.Misprediction(m.Line, m.MPNode, m.Prio)
	}
	d.tryComplete(m.Line, e)
}

func (d *Directory) handleWBData(m *Msg) {
	e := d.entry(m.Line, m.LID)
	d.env.StoreLine(m.Line, m.LID, m.Data)
	if e.busy && e.waitWB {
		e.gotWB = true
		d.tryComplete(m.Line, e)
	}
}

func (d *Directory) handlePUTX(m *Msg) {
	e := d.entry(m.Line, m.LID)
	if e.busy || e.state != DirModified || e.owner != m.Src {
		// Raced with a forward (or is stale): the owner must keep serving
		// the in-flight forward from its retained copy.
		d.env.Send(dirLatency, d.msgTo(MsgWBStale, m, m.Src))
		return
	}
	d.env.StoreLine(m.Line, m.LID, m.Data)
	e.state = DirInvalid
	e.sharers = nodeSet{}
	e.owner = -1
	d.env.Send(dirLatency, d.msgTo(MsgWBAck, m, m.Src))
	d.recycleIfIdle(e)
}

func (d *Directory) tryComplete(l mem.Line, e *dirEntry) {
	if !e.gotUnblock {
		return
	}
	if e.unblockOK && e.waitWB && !e.gotWB {
		return
	}
	// Apply the final transition.
	req := e.requester
	if e.unblockOK {
		switch {
		case e.busyGETX:
			e.state = DirModified
			e.owner = req
			e.sharers = oneNode(req)
		case e.busyGETS:
			// M -> S downgrade: old owner keeps a shared copy.
			e.state = DirShared
			e.sharers = e.savedShare
			e.sharers.add(e.savedOwner)
			e.sharers.add(req)
			e.owner = -1
		}
	} else {
		// Failed (NACKed) request: restore the pre-request state. Sharers
		// that invalidated remain listed — a conservative superset; later
		// spurious invalidations ACK harmlessly.
		e.state = e.savedState
		e.sharers = e.savedShare
		e.owner = e.savedOwner
	}
	if d.pred != nil && e.busyTxGETX {
		if e.unicastTo >= 0 {
			d.pred.UnicastResolved(!e.unblockMP)
		} else {
			d.pred.MulticastResolved(!e.unblockOK && e.unblockAborted > 0)
		}
	}
	// Blocking accounting.
	blocked := uint64(d.env.Now() - e.busySince)
	d.stats.BusyCycles += blocked
	if e.busyTxGETX {
		d.stats.TxGETXBusy += blocked
	}
	e.busy = false
	e.unicastTo = -1
	d.updateUD(e, l)
	// Drain parked requests until one re-blocks the entry (or none are
	// left): requests serviced entirely at the home node (e.g. GETS from
	// Shared) do not block, so stopping after one would strand the rest.
	// The head is serviced where it sits, then shifted out: the handlers
	// only read it, and nothing can park on e (the one queue this could
	// disturb) while e is not busy.
	for !e.busy && len(e.pending) > 0 {
		switch next := &e.pending[0]; next.Type {
		case MsgGETS:
			d.handleGETS(next)
		case MsgGETX:
			d.handleGETX(next)
		}
		e.pending = e.pending[:copy(e.pending, e.pending[1:])]
	}
}

func (d *Directory) updateUD(e *dirEntry, l mem.Line) {
	if d.pred == nil {
		return
	}
	d.pred.UpdateUD(l, d.sharersScratch(e.sharers, -1))
}
