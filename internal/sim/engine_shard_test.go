package sim

import (
	"slices"
	"testing"
)

// wordRecorder is a minimal Handler that records the payload words it runs.
type wordRecorder struct{ fired []uint64 }

func (h *wordRecorder) OnEvent(arg any, word uint64) { h.fired = append(h.fired, word) }

func TestPeekSeqStep(t *testing.T) {
	e := NewEngine()
	h := &wordRecorder{}
	if _, _, ok := e.Peek(); ok {
		t.Fatal("Peek on an empty engine reported an event")
	}
	if got := e.Seq(); got != 0 {
		t.Fatalf("fresh engine Seq() = %d, want 0", got)
	}
	e.AtEvent(10, h, nil, 1) // seq 0
	e.AtEvent(5, h, nil, 2)  // seq 1
	if got := e.Seq(); got != 2 {
		t.Fatalf("Seq() after two schedules = %d, want 2", got)
	}
	at, seq, ok := e.Peek()
	if !ok || at != 5 || seq != 1 {
		t.Fatalf("Peek = (%d, %d, %v), want (5, 1, true)", at, seq, ok)
	}
	// Peek must not pop.
	if at2, seq2, ok2 := e.Peek(); !ok2 || at2 != at || seq2 != seq {
		t.Fatalf("second Peek = (%d, %d, %v), want same (%d, %d, true)", at2, seq2, ok2, at, seq)
	}
	if !e.Step() {
		t.Fatal("Step with pending events returned false")
	}
	if e.Now() != 5 {
		t.Fatalf("clock after first Step = %d, want 5", e.Now())
	}
	if at, seq, ok = e.Peek(); !ok || at != 10 || seq != 0 {
		t.Fatalf("Peek after Step = (%d, %d, %v), want (10, 0, true)", at, seq, ok)
	}
	if !e.Step() {
		t.Fatal("Step with one pending event returned false")
	}
	if e.Step() {
		t.Fatal("Step on a drained engine returned true")
	}
	if want := []uint64{2, 1}; len(h.fired) != 2 || h.fired[0] != want[0] || h.fired[1] != want[1] {
		t.Fatalf("fired order %v, want %v", h.fired, want)
	}
	e.AtEvent(20, h, nil, 3)
	e.Stop()
	if _, _, ok := e.Peek(); ok {
		t.Fatal("Peek on a stopped engine reported an event")
	}
	if e.Step() {
		t.Fatal("Step on a stopped engine returned true")
	}
}

// TestSetSeqOrdersSameCycleChain drives every chain-insert branch: fresh
// bucket, in-order tail append, head insertion, and the positional walk a
// backwards SetSeq (the sharded commit replay) requires.
func TestSetSeqOrdersSameCycleChain(t *testing.T) {
	e := NewEngine()
	h := &wordRecorder{}
	e.SetSeq(10)
	e.AtEvent(7, h, nil, 10) // seq 10: fresh bucket
	e.AtEvent(7, h, nil, 11) // seq 11: tail append
	e.SetSeq(1)
	e.AtEvent(7, h, nil, 1) // seq 1: insert at head
	e.SetSeq(5)
	e.AtEvent(7, h, nil, 5) // seq 5: positional walk into the middle
	e.Run(Infinity)
	want := []uint64{1, 5, 10, 11}
	if len(h.fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(h.fired), len(want))
	}
	for i := range want {
		if h.fired[i] != want[i] {
			t.Fatalf("fired order %v, want %v (SetSeq did not reorder the chain)", h.fired, want)
		}
	}
}

// TestSetSeqRewindRunsInSeqOrder rewinds seq twice — once while every
// event is still queued, once after Run has advanced the clock so a far
// cycle holds both a spill resident and wheel events — and checks that Run
// fires each cycle's events in seq order, against the reference.
func TestSetSeqRewindRunsInSeqOrder(t *testing.T) {
	const far = DefaultWheelWindow + 50 // spills at cycle 0; inside the horizon from cycle 51
	e := NewEngine()
	ref := &refQueue{}
	var fired []int
	at := func(c Time, id int) {
		e.At(c, func() { fired = append(fired, id) })
		ref.schedule(c, id)
	}
	setSeq := func(seq uint64) {
		e.SetSeq(seq)
		ref.seq = seq
	}
	setSeq(100)
	for id := 0; id < 6; id++ {
		at(Time(10+id%3), id) // seqs 100-105 over cycles 10-12
	}
	at(far, 6) // seq 106: spill resident
	setSeq(50)
	for id := 7; id < 13; id++ {
		at(Time(10+id%3), id) // seqs 50-55: ahead of every tail
	}
	at(far, 13) // seq 56: a resident ahead of event 6
	want := ref.run(150)
	e.Run(150)
	setSeq(103)
	at(far, 14) // seq 103, now in the wheel: between residents 13 and 6
	at(far, 15) // seq 104
	at(151, 16) // seq 105: the next cycle's only event
	want = append(want, ref.run(Infinity)...)
	e.Run(Infinity)
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, reference %v", fired, want)
	}
	if len(fired) != 17 {
		t.Fatalf("fired %d events, want 17", len(fired))
	}
}

// TestRekeyBucketAndOverflow bulk-renumbers provisional events sitting in
// a wheel bucket and in the spill list, then certifies the new seqs are
// real: fresh events scheduled between the mapped values (via SetSeq)
// interleave exactly where the renumbering put them.
func TestRekeyBucketAndOverflow(t *testing.T) {
	const base = uint64(1) << 62
	const far = DefaultWheelWindow + 1000
	e := NewEngine()
	h := &wordRecorder{}
	e.SetSeq(5)
	e.AtEvent(7, h, nil, 100) // serial seq 5, below base: must be untouched
	e.SetSeq(base)
	e.AtEvent(7, h, nil, 101)   // base+0, wheel
	e.AtEvent(7, h, nil, 102)   // base+1, wheel (same bucket chain)
	e.AtEvent(far, h, nil, 103) // base+2, spill list
	e.AtEvent(far, h, nil, 104) // base+3, spill list
	renum := []uint64{10, 20, 30, 40}
	e.RekeyBucket(7, base, renum)
	e.RekeyOverflow(base, renum)
	// Events inserted after the bulk passes, keyed between the mapped seqs:
	// chainInsertBefore's positional walk and spillInsert's scan must slot them in.
	e.SetSeq(15)
	e.AtEvent(7, h, nil, 105) // between the rekeyed 10 and 20
	e.SetSeq(35)
	e.AtEvent(far, h, nil, 106) // between the rekeyed 30 and 40
	e.Run(Infinity)
	want := []uint64{100, 101, 105, 102, 103, 106, 104}
	if len(h.fired) != len(want) {
		t.Fatalf("fired %d events, want %d (%v)", len(h.fired), len(want), h.fired)
	}
	for i := range want {
		if h.fired[i] != want[i] {
			t.Fatalf("fired order %v, want %v (bulk rekey misordered)", h.fired, want)
		}
	}
}

// TestRekeyBucketHorizonGuard pins the horizon check: a cycle at or beyond
// the wheel window aliases onto some bucket's slot, and rekeying it must
// not touch the in-horizon events living there.
func TestRekeyBucketHorizonGuard(t *testing.T) {
	const base = uint64(1) << 62
	e := NewEngine()
	h := &wordRecorder{}
	e.SetSeq(base)
	e.AtEvent(7, h, nil, 1) // provisional, in the cycle-7 bucket
	// Cycle window+7 shares the bucket slot but sits outside the horizon:
	// the guard must refuse, leaving the cycle-7 event provisional.
	e.RekeyBucket(DefaultWheelWindow+7, base, []uint64{5})
	e.SetSeq(6)
	e.AtEvent(7, h, nil, 2) // serial 6: sorts before any provisional
	e.Run(Infinity)
	if want := []uint64{2, 1}; len(h.fired) != 2 || h.fired[0] != want[0] || h.fired[1] != want[1] {
		t.Fatalf("fired order %v, want %v (out-of-horizon RekeyBucket touched the aliased bucket)", h.fired, want)
	}
}

// TestRekeyAcrossHorizonBoundary pins the cross-level FIFO tie-break under
// renumbering: an event that spilled long ago shares its cycle with a wheel
// event scheduled once the cycle came inside the horizon. RekeyOverflow
// must renumber both — the resident and its same-cycle bucket — so that
// serial-keyed arrivals at that cycle interleave with either level by seq.
func TestRekeyAcrossHorizonBoundary(t *testing.T) {
	const base = uint64(1) << 62
	const far = DefaultWheelWindow + 25
	e := NewEngine()
	h := &wordRecorder{}
	e.SetSeq(base)
	e.AtEvent(far, h, nil, 1) // base+0: beyond the horizon, spills
	e.AtEvent(50, h, nil, 2)  // base+1: wheel
	e.Step()                  // run the wheel event; now = 50, far is inside the horizon
	e.AtEvent(far, h, nil, 3) // base+2: same cycle as the resident, lands in the wheel
	e.RekeyOverflow(base, []uint64{10, 0, 20})
	for _, seq := range []uint64{5, 15, 25} { // before, between and after the two
		e.SetSeq(seq)
		e.AtEvent(far, h, nil, seq)
	}
	e.Run(Infinity)
	if want := []uint64{2, 5, 1, 15, 3, 25}; !slices.Equal(h.fired, want) {
		t.Fatalf("fired order %v, want %v (horizon-boundary rekey misordered)", h.fired, want)
	}
}

// funcHandler adapts a closure to Handler for tests that need side effects.
type funcHandler struct{ f func(word uint64) }

func (h *funcHandler) OnEvent(arg any, word uint64) { h.f(word) }

// TestDrainBefore drives the windowed drain the PDES coordinator runs: only
// effectful events (a schedule, or a bump of either external counter — an
// emission-only event included) may append entries, keys carry the
// provisional flag exactly when the event's seq sits at or above the
// renumbering base, and the returned time is the first undrained event's
// (Infinity once the queue empties).
func TestDrainBefore(t *testing.T) {
	const base = uint64(1) << 62
	const flag = uint32(1) << 31
	e := NewEngine()
	var ext, emit int32
	quiet := &wordRecorder{}
	sched2 := &funcHandler{f: func(uint64) { e.AtEvent(7, quiet, nil, 0) }}
	sched := &funcHandler{f: func(uint64) { e.AtEvent(5, sched2, nil, 0) }}
	sender := &funcHandler{f: func(uint64) { ext++ }}
	emitter := &funcHandler{f: func(uint64) { emit++ }}

	e.AtEvent(1, quiet, nil, 0)   // seq 0: no effect, no entry
	e.AtEvent(2, sched, nil, 0)   // seq 1: schedules -> entry, serial key
	e.AtEvent(3, sender, nil, 0)  // seq 2: bumps ext -> entry
	e.AtEvent(4, emitter, nil, 0) // seq 3: bumps emit only -> entry
	e.AtEvent(9, quiet, nil, 0)   // seq 4: at the window edge, not drained
	e.SetSeq(base)

	log, next := e.DrainBefore(9, base, flag, nil, &ext, &emit)
	if next != 9 {
		t.Fatalf("next = %d, want the undrained event's time 9", next)
	}
	if ext != 1 || emit != 1 {
		t.Fatalf("ext, emit = %d, %d, want 1, 1", ext, emit)
	}
	want := []DrainEntry{
		{At: 2, Key: 1, SeqHi: 1, Send: 0, Emit: 0},        // scheduled the cycle-5 child (prov seq base+0)
		{At: 3, Key: 2, SeqHi: 1, Send: 1, Emit: 0},        // ext bump only, seq untouched
		{At: 4, Key: 3, SeqHi: 1, Send: 1, Emit: 1},        // emission only: logged with the advanced Emit cursor
		{At: 5, Key: 0 | flag, SeqHi: 2, Send: 1, Emit: 1}, // provisional event, schedules cycle-7 child
	}
	if len(log) != len(want) {
		t.Fatalf("log has %d entries, want %d: %+v", len(log), len(want), log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, log[i], want[i])
		}
	}

	log2, next2 := e.DrainBefore(100, base, flag, log[:0], &ext, &emit)
	if next2 != Infinity {
		t.Fatalf("next after draining everything = %d, want Infinity", next2)
	}
	if len(log2) != 0 {
		t.Fatalf("quiet tail produced entries: %+v", log2)
	}

	// Nothing fires before cycle 0: a zero limit drains nothing and reports
	// the pending event's time.
	e0 := NewEngine()
	e0.AtEvent(0, sender, nil, 0)
	if log0, next0 := e0.DrainBefore(0, base, flag, nil, &ext, &emit); len(log0) != 0 || next0 != 0 || e0.Pending() != 1 {
		t.Fatalf("DrainBefore(0) drained %d entries, next %d, %d pending; want 0, 0, 1", len(log0), next0, e0.Pending())
	}

	// Events already at now, behind the one Step fired, fire at now — not
	// before a limit of now — however the drain pops them.
	e1 := NewEngine()
	e1.AtEvent(10, quiet, nil, 0)
	e1.AtEvent(10, sender, nil, 0)
	e1.Step()
	if log1, next1 := e1.DrainBefore(10, base, flag, nil, &ext, &emit); len(log1) != 0 || next1 != 10 || e1.Pending() != 1 {
		t.Fatalf("DrainBefore(now) drained %d entries, next %d, %d pending; want 0, 10, 1", len(log1), next1, e1.Pending())
	}

	e.AtEvent(50, quiet, nil, 0)
	e.Stop()
	if log3, next3 := e.DrainBefore(100, base, flag, nil, &ext, &emit); len(log3) != 0 || next3 != Infinity {
		t.Fatalf("stopped engine drained: %d entries, next %d", len(log3), next3)
	}
}
