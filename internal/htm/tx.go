// Package htm implements the per-core hardware-transactional-memory
// bookkeeping of a log-based eager HTM (LogTM/FASTM class, the paper's
// baseline): exact read and write sets, an undo log for eager version
// management with a fixed per-entry rollback cost, timestamp priorities
// under the time-based conflict resolution policy, and optional
// Bloom-filter signatures (LogTM-SE style) as an alternative
// conflict-detection backend.
package htm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Priority is a transaction's conflict-resolution priority under the
// time-based policy: the cycle at which the transaction (logically) began.
// Smaller is older is higher priority. NoPriority marks a node not currently
// in a transaction; it never wins a conflict.
type Priority uint64

// NoPriority is the NACK marker "I will not nack this line": a sharer with
// no conflicting transaction reports it on a misprediction NACK, and the
// directory's predictor invalidates that node's P-Buffer entry. Compared
// as a priority it loses every conflict.
const NoPriority Priority = ^Priority(0)

// Older reports whether p wins a conflict against q. Ties (identical begin
// cycles on different nodes) are broken by node id, lower id winning, so
// that priority is a strict total order across the machine.
func Older(p Priority, pNode int, q Priority, qNode int) bool {
	if p != q {
		return p < q
	}
	return pNode < qNode
}

// Status is the lifecycle state of a transaction attempt.
type Status uint8

// Transaction lifecycle states.
const (
	StatusIdle      Status = iota // no transaction running
	StatusRunning                 // between begin and commit/abort
	StatusAborting                // rolling back the undo log
	StatusCommitted               // final, until the next Begin
	StatusAborted                 // final for this attempt, will retry
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "idle"
	case StatusRunning:
		return "running"
	case StatusAborting:
		return "aborting"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// LogEntry records the pre-transaction value of one word, for undo.
type LogEntry struct {
	Addr mem.Addr
	Old  uint64
}

// Costs models the cycle costs of transactional bookkeeping. The defaults
// follow the paper's baseline: a hardware buffer holds pre-transaction
// state for fast FASTM-style abort recovery.
type Costs struct {
	BeginCycles    sim.Time // register checkpoint
	CommitCycles   sim.Time // clear sets, release isolation
	AbortFixed     sim.Time // abort detection and pipeline flush
	AbortPerEntry  sim.Time // restoring one undo-log word
	OverflowCycles sim.Time // extra penalty when aborting due to set overflow
}

// DefaultCosts returns the baseline cost model.
func DefaultCosts() Costs {
	return Costs{BeginCycles: 2, CommitCycles: 2, AbortFixed: 10, AbortPerEntry: 2, OverflowCycles: 40}
}

// Tx is the transactional state of one hardware thread. The zero value is
// an idle transaction.
type Tx struct {
	Node     int
	StaticID int      // which static (source-level) transaction this is
	Prio     Priority // retained across retries of the same dynamic instance
	Status   Status

	// Exact conflict sets: flat, insertion-ordered, reused across attempts
	// (Reset instead of re-make) so steady-state transactions allocate
	// nothing — mirroring the fixed-size set structures of bounded HTMs.
	readSet  lineSet
	writeSet lineSet
	undo     []LogEntry

	BeginCycle   sim.Time // cycle this attempt started executing
	Attempts     int      // 1 on first execution, +1 per retry
	sig          *Signature
	useSignature bool

	// it translates Lines to the dense LineIDs the conflict sets are
	// indexed by. The machine shares its interner via SetInterner; a Tx
	// used standalone (tests) falls back to its own zero-value one.
	it    *mem.Interner
	ownIt mem.Interner

	// probe, when non-nil, receives transaction lifecycle and
	// conflict-detection events; probeNow supplies their timestamps
	// (Commit/StartAbort/ConflictsWithID are not passed the clock).
	probe    probe.Sink
	probeNow func() sim.Time
}

// NewTx returns an idle transaction context for a node.
func NewTx(node int) *Tx {
	return &Tx{Node: node, Status: StatusIdle}
}

// SetInterner shares the machine-wide line interner, so the IDs carried by
// coherence messages index this transaction's conflict sets directly.
func (t *Tx) SetInterner(it *mem.Interner) { t.it = it }

// SetProbe installs an event sink for transaction lifecycle
// (begin/commit/abort) and conflict-detection events, with now supplying
// timestamps. Pass (nil, nil) to disable. The probe observes only — it
// must never influence the trajectory.
func (t *Tx) SetProbe(s probe.Sink, now func() sim.Time) {
	t.probe = s
	t.probeNow = now
}

// emit sends a lifecycle event when a probe is installed.
//
//puno:hot
func (t *Tx) emit(kind probe.Kind, cycle sim.Time, line mem.LineID, arg uint64) {
	if t.probe == nil {
		return
	}
	t.probe.Emit(probe.Event{Cycle: cycle, Arg: arg, Line: line, Node: int16(t.Node), Kind: kind})
}

// interner returns the shared interner, or the Tx's own when none was
// provided (standalone tests); a zero Interner is ready to use.
func (t *Tx) interner() *mem.Interner {
	if t.it == nil {
		t.it = &t.ownIt
	}
	return t.it
}

// UseSignatures switches conflict tracking to Bloom-filter signatures of the
// given size in bits (in addition to the exact sets, which are still kept
// for version management). Conflict checks then go through the signature and
// may report false positives, as in LogTM-SE. A previously allocated filter
// of the same size is cleared and reused.
func (t *Tx) UseSignatures(bits int) {
	t.useSignature = true
	if t.sig != nil && t.sig.Bits() == roundSignatureBits(bits) {
		t.sig.Clear()
		return
	}
	t.sig = NewSignature(bits)
}

// HardReset returns the context to the state NewTx(node) would produce —
// idle, no priority, no attempts — while keeping the read/write set, undo
// log, and signature capacity for reuse. Unlike Reset (which only consumes
// a finished attempt), HardReset may be called in any state: it is the
// arena-reuse path, run between simulations, so no attempt can be live.
// Signature mode is switched off; the next run re-enables it via
// UseSignatures when its config asks for them.
func (t *Tx) HardReset(node int) {
	t.Node = node
	t.StaticID = 0
	t.Prio = 0
	t.Status = StatusIdle
	t.readSet.Reset()
	t.writeSet.Reset()
	t.undo = t.undo[:0]
	t.BeginCycle = 0
	t.Attempts = 0
	t.useSignature = false
	if t.sig != nil {
		t.sig.Clear()
	}
}

// Begin starts a new dynamic instance at cycle now. If retry is true the
// transaction keeps its previous priority (time-based policy: a retried
// transaction ages, guaranteeing progress); otherwise priority is the begin
// cycle.
func (t *Tx) Begin(staticID int, now sim.Time, retry bool) {
	if t.Status == StatusRunning || t.Status == StatusAborting {
		panic(fmt.Sprintf("htm: Begin while %v", t.Status))
	}
	if !retry {
		t.Prio = Priority(now)
		t.Attempts = 0
	}
	t.StaticID = staticID
	t.Status = StatusRunning
	t.BeginCycle = now
	t.Attempts++
	t.readSet.Reset()
	t.writeSet.Reset()
	t.undo = t.undo[:0]
	if t.sig != nil {
		t.sig.Clear()
	}
	t.emit(probe.KindTxBegin, now, 0, probe.PackTx(staticID, t.Attempts, false))
}

// Running reports whether a transaction attempt is currently executing.
func (t *Tx) Running() bool { return t.Status == StatusRunning }

// InFlight reports whether the node holds transactional isolation (running
// or mid-abort; in both cases its sets are still relevant to requests that
// raced with the abort).
func (t *Tx) InFlight() bool { return t.Status == StatusRunning || t.Status == StatusAborting }

// RecordRead adds l to the read set.
func (t *Tx) RecordRead(l mem.Line) { t.RecordReadID(l, 0) }

// RecordReadID adds l, whose interned ID is id (0 when the caller does not
// know it), to the read set.
//
//puno:hot
func (t *Tx) RecordReadID(l mem.Line, id mem.LineID) {
	t.mustRun("RecordRead")
	if id == 0 {
		id = t.interner().Intern(l)
	}
	t.readSet.AddID(l, id)
	if t.sig != nil {
		t.sig.InsertRead(l)
	}
}

// RecordWrite adds l to the write set and logs the old value of the word
// about to be overwritten.
func (t *Tx) RecordWrite(l mem.Line, a mem.Addr, old uint64) {
	t.RecordWriteID(l, 0, a, old)
}

// RecordWriteID is RecordWrite with l's interned ID carried by the caller
// (0 when unknown).
//
//puno:hot
func (t *Tx) RecordWriteID(l mem.Line, id mem.LineID, a mem.Addr, old uint64) {
	t.mustRun("RecordWrite")
	if id == 0 {
		id = t.interner().Intern(l)
	}
	t.writeSet.AddID(l, id)
	if t.sig != nil {
		t.sig.InsertWrite(l)
	}
	t.undo = append(t.undo, LogEntry{Addr: a, Old: old})
}

func (t *Tx) mustRun(op string) {
	if t.Status != StatusRunning {
		panic(fmt.Sprintf("htm: %s while %v", op, t.Status))
	}
}

// InReadSet reports whether l is (possibly, if signatures are enabled) in
// the read set.
func (t *Tx) InReadSet(l mem.Line) bool { return t.InReadSetID(l, 0) }

// InReadSetID is InReadSet with l's interned ID carried by the caller (0
// when unknown; a line that was never interned cannot be a member).
// Signature mode still hashes the raw line, exactly as the modeled
// hardware would.
//
//puno:hot
func (t *Tx) InReadSetID(l mem.Line, id mem.LineID) bool {
	if t.useSignature {
		return t.sig.TestRead(l)
	}
	if id == 0 {
		id = t.interner().Lookup(l)
	}
	return t.readSet.ContainsID(id)
}

// InWriteSet reports whether l is (possibly) in the write set.
func (t *Tx) InWriteSet(l mem.Line) bool { return t.InWriteSetID(l, 0) }

// InWriteSetID is InWriteSet with l's interned ID carried by the caller.
//
//puno:hot
func (t *Tx) InWriteSetID(l mem.Line, id mem.LineID) bool {
	if t.useSignature {
		return t.sig.TestWrite(l)
	}
	if id == 0 {
		id = t.interner().Lookup(l)
	}
	return t.writeSet.ContainsID(id)
}

// ConflictsWith classifies an incoming request against this transaction's
// sets: a write request conflicts with read or write membership, a read
// request conflicts only with write membership ("single-writer,
// multi-reader" invariant).
func (t *Tx) ConflictsWith(l mem.Line, isWrite bool) bool {
	return t.ConflictsWithID(l, 0, isWrite)
}

// ConflictsWithID is ConflictsWith with l's interned ID carried by the
// caller (0 when unknown).
//
//puno:hot
func (t *Tx) ConflictsWithID(l mem.Line, id mem.LineID, isWrite bool) bool {
	if !t.InFlight() {
		return false
	}
	if id == 0 && !t.useSignature {
		id = t.interner().Lookup(l)
	}
	var hit bool
	if isWrite {
		hit = t.InReadSetID(l, id) || t.InWriteSetID(l, id)
	} else {
		hit = t.InWriteSetID(l, id)
	}
	if hit && t.probe != nil {
		t.emit(probe.KindConflict, t.probeNow(), id, probe.PackTx(t.StaticID, t.Attempts, isWrite))
	}
	return hit
}

// ReadSetSize returns the exact read-set line count.
func (t *Tx) ReadSetSize() int { return t.readSet.Len() }

// WriteSetSize returns the exact write-set line count.
func (t *Tx) WriteSetSize() int { return t.writeSet.Len() }

// LogEntries returns the undo-log length in words.
func (t *Tx) LogEntries() int { return len(t.undo) }

// ForEachSetLine calls fn for every line in either set (write-set lines
// first, each set in insertion order). Used by the machine layer to unpin
// cache lines at commit/abort.
func (t *Tx) ForEachSetLine(fn func(l mem.Line, write bool)) {
	for _, l := range t.writeSet.lines {
		fn(l, true)
	}
	for i, l := range t.readSet.lines {
		if !t.writeSet.ContainsID(t.readSet.ids[i]) {
			fn(l, false)
		}
	}
}

// Commit finalizes the attempt and returns its cost in cycles.
func (t *Tx) Commit(c Costs) sim.Time {
	t.mustRun("Commit")
	t.Status = StatusCommitted
	if t.probe != nil {
		t.emit(probe.KindTxCommit, t.probeNow(), 0, probe.PackTx(t.StaticID, t.Attempts, false))
	}
	return c.CommitCycles
}

// StartAbort moves the transaction to the aborting state and returns the
// rollback latency: fixed cost plus per-undo-entry cost (plus the overflow
// penalty when overflow is true). The caller applies the undo entries via
// UndoEntry and completes with FinishAbort after the latency elapses.
func (t *Tx) StartAbort(c Costs, overflow bool) sim.Time {
	t.mustRun("StartAbort")
	t.Status = StatusAborting
	lat := c.AbortFixed + sim.Time(len(t.undo))*c.AbortPerEntry
	if overflow {
		lat += c.OverflowCycles
	}
	if t.probe != nil {
		t.emit(probe.KindTxAbort, t.probeNow(), 0, probe.PackTx(t.StaticID, t.Attempts, overflow))
	}
	return lat
}

// UndoEntry returns the i'th undo entry in log (oldest-first) order.
// Applying entries newest-first, from LogEntries()-1 down to 0, restores
// pre-transaction values even when a word was written more than once.
func (t *Tx) UndoEntry(i int) LogEntry { return t.undo[i] }

// FinishAbort completes rollback: sets are cleared and the attempt is over.
func (t *Tx) FinishAbort() {
	if t.Status != StatusAborting {
		panic(fmt.Sprintf("htm: FinishAbort while %v", t.Status))
	}
	t.Status = StatusAborted
	t.readSet.Reset()
	t.writeSet.Reset()
	t.undo = t.undo[:0]
	if t.sig != nil {
		t.sig.Clear()
	}
}

// Reset returns to idle (after a committed or aborted attempt has been
// consumed by the core).
func (t *Tx) Reset() {
	if t.Status == StatusRunning || t.Status == StatusAborting {
		panic(fmt.Sprintf("htm: Reset while %v", t.Status))
	}
	t.Status = StatusIdle
}
