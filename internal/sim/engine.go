// Package sim provides a deterministic discrete-event simulation engine:
// a cycle clock, an allocation-free event queue with stable FIFO
// tie-breaking, and a seeded pseudo-random number generator. Every run with
// the same seed and the same schedule of events produces bit-identical
// results, which the experiment harness relies on.
//
// The queue is a time wheel with a sorted spill list, over a slab of event
// slots recycled through a free list. Short delays — the overwhelming
// majority in a cache-coherent CMP model: NoC hops, controller occupancy
// windows, hit latencies, fixed backoffs — land in a dense near-horizon
// wheel with O(1) schedule and pop. Long timers (notification-guided
// sleeps, restart backoffs) go to a spill list kept in (at, seq) order. A
// node's FSM has at most one live far timer; a superseded one stays queued
// until its cycle. The list is short and measured at ~0.01% of scheduled
// events or less (DESIGN.md has the table; TestOverflowStaysCold pins it),
// which is why a linear insert is all the structure it needs.
// Events can be scheduled either as closures (At/After) or — on hot paths —
// closure-free via a Handler interface plus a payload value and word
// (AtEvent/AfterEvent). Both share one slot layout and one dispatch: a
// closure rides in the slot's arg under a package-level runner Handler.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a simulation timestamp in clock cycles.
type Time uint64

// Infinity is a time later than any reachable simulation time.
const Infinity Time = math.MaxUint64

// Event is a callback scheduled to run at a given cycle.
type Event func()

// Handler is the closure-free event callback used by hot paths: instead of
// capturing state in a closure per event, the caller registers a long-lived
// Handler and passes the per-event state as an arg value (typically a
// pooled pointer) and a payload word (typically a small index or opcode).
// Scheduling through a Handler performs no allocation.
type Handler interface {
	OnEvent(arg any, word uint64)
}

// closureRunner is the Handler At and After schedule through: the closure
// rides in the slot's arg, so every event dispatches the same way.
type closureRunner struct{}

// OnEvent runs the closure carried in arg.
func (*closureRunner) OnEvent(arg any, _ uint64) { arg.(Event)() }

// runClosure is the one closureRunner every closure event names.
var runClosure = new(closureRunner)

// inSpill is the next link of a slot in the spill list, which links
// nothing: a wheel slot's next is its chain link and a free slot's its
// free-list link, both -1 or above.
const inSpill int32 = -2

// eventSlot is one entry of the event slab: 64 bytes, one cache line.
type eventSlot struct {
	at   Time
	seq  uint64 // insertion order; breaks ties so same-cycle events run FIFO
	h    Handler
	arg  any
	word uint64
	next int32 // free-list or bucket-chain link (-1 ends the list), or inSpill
}

// DefaultWheelWindow is the engine's near-horizon window: delays shorter
// than this many cycles get O(1) wheel scheduling; longer timers go to the
// spill list. 4096 covers every protocol-level delay of the default machine
// (NoC traversals, cache/memory latencies, occupancy windows, fixed
// backoffs) while leaving only rare long sleeps (notification-guided waits,
// randomized restart backoffs) to spill. It must be a power of two and a
// multiple of 64 (one occupancy word per 64 buckets). Event ordering does
// not depend on it: it only moves the wheel/spill split.
const DefaultWheelWindow Time = 4096

// wheelMask maps a cycle to its wheel bucket.
const wheelMask = uint64(DefaultWheelWindow - 1)

// bucket is one wheel slot: an intrusive FIFO chain of event-slot indices.
// All events in a bucket share one absolute firing time (see the horizon
// invariant in Engine), and the chain is in seq order by construction.
type bucket struct {
	head int32 // -1 when empty
	tail int32 // meaningful only while head >= 0
}

// Engine is the discrete-event simulation core. The zero value is not
// usable; construct with NewEngine.
//
// Horizon invariant: every event in the wheel satisfies
// now <= at < now+DefaultWheelWindow. Distinct times in a window-sized
// range map to distinct buckets (at mod window), so each bucket holds
// events of exactly one absolute time; events at or beyond the horizon
// live in the spill list and are popped directly from there when their
// turn comes (no migration pass is needed for correctness — the next event
// overall is the (at, seq)-minimum of the earliest wheel bucket's head and
// the list head).
type Engine struct {
	now     Time
	seq     uint64
	slots   []eventSlot
	free    int32 // head of the free-slot list; -1 when empty
	nRun    uint64
	nSpill  uint64
	stopped bool

	// Near-horizon wheel: bucket b holds the time ≡ b (mod window), and
	// occ is the occupancy bitmap over the buckets.
	buckets [DefaultWheelWindow]bucket
	occ     [DefaultWheelWindow / 64]uint64
	nWheel  int // live events currently in the wheel

	// Overflow level: slab indices sorted by (at, seq), holding events
	// scheduled at or beyond the wheel horizon. seq is unique, so the order
	// is a strict total one and pop order cannot depend on how it is kept.
	// spillAt is the head's cycle (Infinity when the list is empty): while
	// now is before it, no resident can tie with now's bucket.
	spill   []int32
	spillAt Time

	// rewound is set once SetSeq has moved seq backwards, or a rekey has
	// renumbered queued events, since the last Reset. Until then seq only
	// grows, so a new wheel event always belongs at its chain's tail.
	rewound bool
}

// NewEngine returns an engine with the clock at cycle 0.
func NewEngine() *Engine {
	e := &Engine{free: -1, spillAt: Infinity}
	for i := range e.buckets {
		e.buckets[i] = bucket{head: -1, tail: -1}
	}
	e.growSlab()
	return e
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far, counting every
// popped event (a continuation its owner has superseded still pops, as a
// no-op); Reset rewinds the count to zero.
func (e *Engine) Processed() uint64 { return e.nRun }

// Spilled returns the number of events scheduled at or beyond the wheel
// horizon since the last Reset — the traffic the spill list's linear insert
// is sized for.
func (e *Engine) Spilled() uint64 { return e.nSpill }

// Pending returns the number of events currently scheduled: events in the
// wheel plus events in the spill list, superseded continuations included.
// Free slab slots are not counted — the slab may be much larger than
// Pending after a burst.
func (e *Engine) Pending() int { return e.nWheel + len(e.spill) }

// Reset returns the engine to the state NewEngine left it in — clock at
// zero, no pending events, zero Processed count, not stopped — while
// retaining the slot slab, wheel, and spill-list capacity for reuse.
func (e *Engine) Reset() {
	for i := range e.buckets {
		for idx := e.buckets[i].head; idx >= 0; {
			next := e.slots[idx].next
			e.release(idx)
			idx = next
		}
		e.buckets[i] = bucket{head: -1, tail: -1}
	}
	for _, idx := range e.spill {
		e.release(idx)
	}
	clear(e.occ[:])
	e.spill = e.spill[:0]
	e.spillAt = Infinity
	e.rewound = false
	e.nWheel = 0
	e.now = 0
	e.seq = 0
	e.nRun = 0
	e.nSpill = 0
	e.stopped = false
}

// Seq returns the insertion sequence number the next scheduled event will
// receive. Together with SetSeq it lets the sharded coordinator bracket a
// replayed schedule so cross-shard event ordering matches the serial run.
func (e *Engine) Seq() uint64 { return e.seq }

// SetSeq overrides the next insertion sequence number. Chains and the spill
// list stay correctly ordered even when the override moves seq backwards:
// from then until the next Reset, schedule inserts out-of-order seqs by
// position (chainInsertBefore; spillInsert always does), not by blind
// append.
func (e *Engine) SetSeq(seq uint64) {
	if seq < e.seq {
		e.rewound = true
	}
	e.seq = seq
}

// Peek returns the (at, seq) key of the event Step would run next, without
// popping it. ok is false when nothing is pending or the engine is stopped.
func (e *Engine) Peek() (at Time, seq uint64, ok bool) {
	if e.stopped {
		return 0, 0, false
	}
	idx := e.nextEvent()
	if idx < 0 {
		return 0, 0, false
	}
	s := &e.slots[idx]
	return s.at, s.seq, true
}

// nextAt returns the cycle of the event Step would run next, or Infinity
// when nothing is pending or the engine is stopped.
func (e *Engine) nextAt() Time {
	at, _, ok := e.Peek()
	if !ok {
		return Infinity
	}
	return at
}

// RekeyBucket reassigns the insertion sequence number of every event in
// the wheel bucket holding cycle t whose seq is at least base to
// renum[seq-base], keeping firing times. The sharded commit path uses it
// to replace provisional seqs with the serial run's: one short chain walk
// renumbers exactly the events that could tie with a serial-keyed arrival
// at t. A t at or beyond the wheel horizon is a no-op (no wheel event
// shares its cycle).
//
// Precondition: the mapping must be strictly increasing over the live seqs
// it covers, and every mapped-to seq must be larger than every seq below
// base already in the bucket. Both hold for the coordinator's
// provisional→serial table — the merge hands out serial seqs in each
// shard's local order, and serial seqs only grow — and together they mean
// the walk preserves the chain's sort order, so no restructuring is
// needed.
func (e *Engine) RekeyBucket(t Time, base uint64, renum []uint64) {
	if t-e.now >= DefaultWheelWindow {
		return
	}
	e.rewound = true
	for idx := e.buckets[uint64(t)&wheelMask].head; idx >= 0; idx = e.slots[idx].next {
		s := &e.slots[idx]
		if s.seq >= base {
			s.seq = renum[s.seq-base]
		}
	}
}

// RekeyOverflow bulk-renumbers the spill list under the same mapping and
// preconditions as RekeyBucket: every spilled event with seq ≥ base is
// reassigned in place (a monotone mapping keeps a sorted list sorted), and
// for each spilled event already inside the wheel horizon the same-cycle
// wheel bucket is renumbered too, so cross-level (at, seq) tie-breaks
// between the two queue levels stay serial-correct.
func (e *Engine) RekeyOverflow(base uint64, renum []uint64) {
	e.rewound = true
	for _, idx := range e.spill {
		s := &e.slots[idx]
		if s.seq >= base {
			s.seq = renum[s.seq-base]
		}
		e.RekeyBucket(s.at, base, renum)
	}
}

// schedule grabs a slot, fills it, and queues it on the wheel (near
// horizon) or the spill list (at or beyond it). A wheel event joins its
// time's bucket chain inline: the chain is empty, or the event's seq is the
// largest and it is appended. Unless the engine has been rewound, seq only
// grows, so the tail's seq is not even read. The cold paths — a sorted
// insert, the spill list, growing the slab — are calls, and the slab grows
// last, once the slot is queued: the free list is never empty on entry.
//
//puno:hot
func (e *Engine) schedule(t Time, h Handler, arg any, word uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	idx := e.free
	s := &e.slots[idx]
	e.free = s.next
	s.at = t
	s.seq = e.seq
	s.h = h
	s.arg = arg
	s.word = word
	e.seq++
	if t-e.now < DefaultWheelWindow {
		e.nWheel++
		bi := uint64(t) & wheelMask
		b := &e.buckets[bi]
		switch {
		case b.head < 0:
			s.next = -1
			b.head, b.tail = idx, idx
			e.occ[bi>>6] |= 1 << (bi & 63)
		case !e.rewound || e.slots[b.tail].seq <= s.seq:
			s.next = -1
			e.slots[b.tail].next = idx
			b.tail = idx
		default:
			e.chainInsertBefore(b, idx)
		}
	} else {
		s.next = inSpill
		e.nSpill++
		e.spillInsert(idx)
	}
	if e.free < 0 {
		e.growSlab()
	}
}

// growSlab appends one slot to the slab and frees it. schedule takes this
// path only until the slab holds the run's peak pending count.
//
//go:noinline
func (e *Engine) growSlab() {
	e.slots = append(e.slots, eventSlot{next: e.free})
	e.free = int32(len(e.slots) - 1)
}

// spillInsert places a filled slot in the spill list, keeping it (at, seq)
// sorted. The scan runs from the tail because a long timer usually fires
// after the ones already waiting.
func (e *Engine) spillInsert(idx int32) {
	e.spill = append(e.spill, idx)
	i := len(e.spill) - 1
	for ; i > 0 && e.before(idx, e.spill[i-1]); i-- {
		e.spill[i] = e.spill[i-1]
	}
	e.spill[i] = idx
	if i == 0 {
		e.spillAt = e.slots[idx].at
	}
}

// spillRemove pops the spill list's head.
func (e *Engine) spillRemove() {
	e.spill = append(e.spill[:0], e.spill[1:]...)
	e.spillAt = Infinity
	if len(e.spill) > 0 {
		e.spillAt = e.slots[e.spill[0]].at
	}
}

// before reports whether slot a fires before slot b.
func (e *Engine) before(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// chainInsertBefore links slot idx into chain b ahead of its tail, keeping
// the chain seq-sorted. It only runs once SetSeq has moved seq backwards
// (sharded commit replay), where bucket chains hold the handful of events of
// one exact cycle.
//
//go:noinline
func (e *Engine) chainInsertBefore(b *bucket, idx int32) {
	s := &e.slots[idx]
	if s.seq < e.slots[b.head].seq {
		s.next = b.head
		b.head = idx
		return
	}
	prev := b.head
	for e.slots[prev].next >= 0 && e.slots[e.slots[prev].next].seq <= s.seq {
		prev = e.slots[prev].next
	}
	s.next = e.slots[prev].next
	e.slots[prev].next = idx
}

// At schedules fn to run at absolute cycle t. Scheduling in the past (t <
// Now) panics: it would silently corrupt causality. fn rides in the slot's
// arg (a func value boxes without allocating), dispatched by runClosure.
func (e *Engine) At(t Time, fn Event) { e.schedule(t, runClosure, fn, 0) }

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Time, fn Event) { e.schedule(e.now+delay, runClosure, fn, 0) }

// AtEvent schedules h.OnEvent(arg, word) at absolute cycle t without
// allocating. FIFO ordering against At-scheduled events is preserved: both
// share the same insertion sequence.
func (e *Engine) AtEvent(t Time, h Handler, arg any, word uint64) { e.schedule(t, h, arg, word) }

// AfterEvent schedules h.OnEvent(arg, word) delay cycles from now without
// allocating.
func (e *Engine) AfterEvent(delay Time, h Handler, arg any, word uint64) {
	e.schedule(e.now+delay, h, arg, word)
}

// release returns a slot to the free list, dropping references so the slab
// does not retain the event's handler or payload.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.h = nil
	s.arg = nil
	s.next = e.free
	e.free = idx
}

// scanWheel returns the head slot of the earliest non-empty bucket, or -1.
// Scanning starts at now's bucket and wraps: bucket (now+k) mod window
// holds exactly the events at time now+k (horizon invariant), so the first
// occupied bucket in scan order is the earliest wheel time, and its chain
// head is that time's lowest seq. Now's own bucket is read first, without
// the bitmap: same-cycle bursts are the common case.
func (e *Engine) scanWheel() int32 {
	start := uint64(e.now) & wheelMask
	if h := e.buckets[start].head; h >= 0 || e.nWheel == 0 {
		return h
	}
	wi := int(start >> 6)
	nw := len(e.occ)
	// First word: ignore buckets before now's position. On wrap-around the
	// high bits of this word are known empty (they were checked first), so
	// re-reading the full word is safe.
	word := e.occ[wi] &^ ((1 << (start & 63)) - 1)
	for i := 0; ; i++ {
		if word != 0 {
			b := uint64(wi)<<6 + uint64(bits.TrailingZeros64(word))
			return e.buckets[b].head
		}
		if i == nw {
			return -1
		}
		wi++
		if wi == nw {
			wi = 0
		}
		word = e.occ[wi]
	}
}

// nextEvent returns the slab index of the globally earliest (at, seq)
// event, or -1 when nothing is pending. Wheel-vs-spill ties at the same
// cycle are broken by seq, preserving cross-level FIFO: an event that
// spilled long ago still runs before a same-cycle event scheduled later
// into the wheel.
func (e *Engine) nextEvent() int32 {
	w := e.scanWheel()
	if len(e.spill) == 0 {
		return w
	}
	h := e.spill[0]
	if w < 0 || e.before(h, w) {
		return h
	}
	return w
}

// pop unlinks the next event when it is the head of now's bucket — the
// common case of a same-cycle burst: that bucket is occupied, no spill
// resident is due this cycle, and now is within limit — and returns its
// slab index. It returns -1, and changes nothing, when that fast case does
// not apply; the loop then falls back to popSlow. It is small enough to
// inline into Run, Step and DrainBefore, which hand the index to take.
//
//puno:hot
func (e *Engine) pop(limit Time) int32 {
	bi := uint64(e.now) & wheelMask
	b := &e.buckets[bi]
	idx := b.head
	if idx < 0 || e.now >= e.spillAt || e.now > limit {
		return -1
	}
	e.unlinkHead(b, bi)
	return idx
}

// unlinkHead removes the head of bucket b, whose index is bi. Emptying
// the bucket leaves its tail stale, which nothing reads.
func (e *Engine) unlinkHead(b *bucket, bi uint64) {
	if b.head = e.slots[b.head].next; b.head < 0 {
		e.occ[bi>>6] &^= 1 << (bi & 63)
	}
	e.nWheel--
}

// popSlow is pop's out-of-line fallback: it unlinks the earliest pending
// event anywhere — found by the bitmap scan for a later wheel cycle, or the
// spill head, compared by (at, seq) with the wheel's earliest — if it fires
// at or before limit, and advances the clock to its cycle. It returns -1,
// and changes nothing, when no event is pending or the earliest one fires
// after limit.
func (e *Engine) popSlow(limit Time) int32 {
	// Most often the next event is a few cycles ahead, in now's bitmap
	// word: take it without the two calls nextEvent makes.
	bi := uint64(e.now) & wheelMask
	if w := e.occ[bi>>6] >> (bi & 63); w != 0 {
		k := uint64(bits.TrailingZeros64(w))
		if t := e.now + Time(k); t < e.spillAt && t <= limit {
			bi += k
			b := &e.buckets[bi]
			idx := b.head
			e.unlinkHead(b, bi)
			e.now = t
			return idx
		}
	}
	idx := e.nextEvent()
	if idx < 0 {
		return -1
	}
	s := &e.slots[idx]
	if s.at > limit {
		return -1
	}
	if s.next != inSpill {
		// The popped slot is always its bucket's head (the scan returns
		// heads, and heads are the chain's minimum seq).
		bi := uint64(s.at) & wheelMask
		e.unlinkHead(&e.buckets[bi], bi)
	} else {
		e.spillRemove()
	}
	e.now = s.at
	return idx
}

// take counts the event pop or popSlow unlinked and releases its slot
// before returning the callback, so the callback may reuse the slot.
func (e *Engine) take(idx int32) (Handler, any, uint64) {
	s := &e.slots[idx]
	h, arg, word := s.h, s.arg, s.word
	e.nRun++
	e.release(idx)
	return h, arg, word
}

// DrainEntry is one effectful event executed by DrainBefore: the cycle it
// ran at, its (possibly flag-tagged) sequence key, the engine seq counter
// after it ran (as an offset from the drain's base), and the caller's two
// external effect counters after it ran.
type DrainEntry struct {
	At    uint32
	Key   uint32
	SeqHi uint32
	Send  int32
	Emit  int32
}

// DrainBefore runs every event firing strictly before limit in one tight
// loop — the windowed equivalent of Run — appending one DrainEntry per
// effectful event to log. An event is effectful when it scheduled
// something (the seq counter advanced) or when *ext or *emit changed (the
// caller's hooks bump them for externally staged effects: remote sends and
// probe emissions). Keys pack as uint32(seq), tagged with flag when seq >=
// base; seq counter values are recorded as offsets from base. It returns
// the grown log and the time of the next pending event — Infinity when the
// queue drained or the engine was stopped. Executed cycles and counter
// offsets must fit 32 bits; the caller guarantees both.
//
//puno:hot
func (e *Engine) DrainBefore(limit Time, base uint64, flag uint32, log []DrainEntry, ext, emit *int32) ([]DrainEntry, Time) {
	if limit == 0 {
		// Nothing fires before cycle 0 (and limit-1 below would wrap).
		return log, e.nextAt()
	}
	x, m := *ext, *emit
	pseq := e.seq
	for !e.stopped {
		idx := e.pop(limit - 1)
		if idx < 0 {
			if idx = e.popSlow(limit - 1); idx < 0 {
				return log, e.nextAt()
			}
		}
		at, seq := e.now, e.slots[idx].seq
		h, arg, word := e.take(idx)
		h.OnEvent(arg, word)
		x2, m2, q2 := *ext, *emit, e.seq
		if x2 != x || m2 != m || q2 != pseq {
			key := uint32(seq)
			if seq >= base {
				key |= flag
			}
			log = append(log, DrainEntry{
				At: uint32(at), Key: key,
				SeqHi: uint32(q2 - base),
				Send:  x2,
				Emit:  m2,
			})
			x, m, pseq = x2, m2, q2
		}
	}
	return log, Infinity
}

// Step runs the single next event. It returns false if the queue is empty
// or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	idx := e.pop(Infinity)
	if idx < 0 {
		if idx = e.popSlow(Infinity); idx < 0 {
			return false
		}
	}
	h, arg, word := e.take(idx)
	h.OnEvent(arg, word)
	return true
}

// Run executes events until the queue drains, Stop is called, or the clock
// passes limit (use Infinity for no limit). It returns the cycle at which it
// stopped.
//
//puno:hot
func (e *Engine) Run(limit Time) Time {
	for !e.stopped {
		idx := e.pop(limit)
		if idx < 0 {
			if idx = e.popSlow(limit); idx < 0 {
				if e.Pending() > 0 {
					e.now = limit // the next event lies beyond limit
				}
				break
			}
		}
		h, arg, word := e.take(idx)
		h.OnEvent(arg, word)
	}
	return e.now
}

// Stop halts Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }
