package sim

// Time-wheel certification: the two-level scheduler (near-horizon wheel +
// sorted spill list) against the container/heap reference model, with command
// streams that force cross-level behaviour — delays on both sides of the
// horizon, events migrating conceptually from "far" to "near" as the clock
// advances, and Run(limit) legs that stop between the levels. The plain
// reference-model test (engine_recycle_test.go) keeps delays tiny and so
// exercises only the wheel; these tests are the other half.

import (
	"slices"
	"testing"
)

// runLeg drains e and ref through Run at a random limit up to span cycles
// ahead of the clock, and checks that both fired the same events in the
// same order and parked the clock on the same cycle. It reports whether a
// spill resident was pending when the leg began.
func runLeg(t *testing.T, e *Engine, ref *refQueue, rng *RNG, span int, engFired, refFired *[]int) bool {
	t.Helper()
	spilled := len(e.spill) > 0
	limit := e.Now() + Time(rng.Intn(span))
	before := len(*engFired)
	e.Run(limit)
	want := ref.run(limit)
	if got := (*engFired)[before:]; !slices.Equal(got, want) {
		t.Fatalf("Run(%d) fired %v, reference %v", limit, got, want)
	}
	if e.Now() != ref.now {
		t.Fatalf("Run(%d) left the clock at %d, reference at %d", limit, e.Now(), ref.now)
	}
	*refFired = append(*refFired, want...)
	return spilled
}

// TestEngineMatchesReferenceCrossLevel replays random schedule/pop streams
// whose delays straddle the wheel horizon (delays up to 4x the window),
// against the container/heap reference. This certifies that the
// wheel/spill split — including events that sit in the spill list while their time
// enters the near window — never changes the (time, seq) pop order, whether
// events fire one at a time through Step or in runs through Run(limit).
func TestEngineMatchesReferenceCrossLevel(t *testing.T) {
	const window = DefaultWheelWindow
	runsWithResidents := 0
	for trial := 0; trial < 100; trial++ {
		rng := NewRNG(uint64(trial) + 7000)
		e := NewEngine()
		ref := &refQueue{}

		var engFired, refFired []int
		nextID := 0

		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // schedule across both levels, biased toward ties
				var d Time
				switch rng.Intn(4) {
				case 0:
					d = Time(rng.Intn(8)) // deep in the wheel
				case 1:
					d = window - 2 + Time(rng.Intn(5)) // horizon straddle
				default:
					d = Time(rng.Uint64n(4 * uint64(window))) // anywhere
				}
				at := e.Now() + d
				id := nextID
				nextID++
				e.At(at, func() { engFired = append(engFired, id) })
				ref.schedule(at, id)
			case op == 9: // drain through Run up to a random limit
				if runLeg(t, e, ref, rng, int(2*window), &engFired, &refFired) {
					runsWithResidents++
				}
			default: // pop
				engOK := e.Step()
				refID, refOK := ref.pop()
				if engOK != refOK {
					t.Fatalf("trial %d step %d: Step = %v, reference pop = %v", trial, step, engOK, refOK)
				}
				if refOK {
					if len(engFired) == 0 || engFired[len(engFired)-1] != refID {
						t.Fatalf("trial %d step %d: engine fired %v, reference fired %d",
							trial, step, engFired[len(engFired)-1:], refID)
					}
					refFired = append(refFired, refID)
				}
			}
			if p, r := e.Pending(), len(ref.h); p != r {
				t.Fatalf("trial %d step %d: Pending = %d, reference holds %d", trial, step, p, r)
			}
		}
		for e.Step() {
		}
		for {
			id, ok := ref.pop()
			if !ok {
				break
			}
			refFired = append(refFired, id)
		}
		if len(engFired) != len(refFired) {
			t.Fatalf("trial %d: engine fired %d events, reference %d", trial, len(engFired), len(refFired))
		}
		for i := range refFired {
			if engFired[i] != refFired[i] {
				t.Fatalf("trial %d: divergence at pop %d: engine %d, reference %d",
					trial, i, engFired[i], refFired[i])
			}
		}
	}
	if runsWithResidents == 0 {
		t.Fatal("no Run leg began with a spill resident pending")
	}
}

// lockstep drives an Engine and the container/heap reference through the
// same schedule/pop script; every fired id is compared as it happens.
type lockstep struct {
	t     *testing.T
	e     *Engine
	ref   *refQueue
	fired []int
	n     int // events scheduled since the last Reset
}

func newLockstep(t *testing.T) *lockstep {
	return &lockstep{t: t, e: NewEngine(), ref: &refQueue{}}
}

// at schedules event number n at absolute cycle c on both sides.
func (l *lockstep) at(c Time) int {
	id := l.n
	l.n++
	l.e.At(c, func() { l.fired = append(l.fired, id) })
	l.ref.schedule(c, id)
	return id
}

// step pops one event from each side and reports whether there was one.
func (l *lockstep) step() bool {
	l.t.Helper()
	ok := l.e.Step()
	want, refOK := l.ref.pop()
	if ok != refOK {
		l.t.Fatalf("Step = %v, reference pop = %v", ok, refOK)
	}
	if ok && l.fired[len(l.fired)-1] != want {
		l.t.Fatalf("engine fired event %d, reference fired %d (so far %v)", l.fired[len(l.fired)-1], want, l.fired)
	}
	if p, r := l.e.Pending(), len(l.ref.h); p != r {
		l.t.Fatalf("Pending = %d, reference holds %d", p, r)
	}
	return ok
}

func (l *lockstep) drain() []int {
	l.t.Helper()
	for l.step() {
	}
	return l.fired
}

// TestEngineSpillList scripts the cases the sorted spill list has to get
// right on its own — every delay of w (the wheel window) or more makes a
// resident — each in lock-step with the reference.
func TestEngineSpillList(t *testing.T) {
	const w = DefaultWheelWindow
	t.Run("same-cycle residents fire FIFO", func(t *testing.T) {
		l := newLockstep(t)
		for i := 0; i < 40; i++ {
			l.at(w + 500)
		}
		l.at(w + 300) // scheduled last, sorts to the head
		if got := l.e.Spilled(); got != 41 {
			t.Fatalf("Spilled = %d, want 41", got)
		}
		fired := l.drain()
		if len(fired) != 41 || fired[0] != 40 {
			t.Fatalf("fired %v, want event 40 first then 0..39", fired)
		}
		for i, id := range fired[1:] {
			if id != i {
				t.Fatalf("same-cycle residents out of FIFO order: %v", fired)
			}
		}
	})

	t.Run("reset with residents", func(t *testing.T) {
		l := newLockstep(t)
		for i := 0; i < 5; i++ {
			l.at(w + 200 + Time(i))
		}
		l.e.Reset()
		*l.ref = refQueue{}
		l.n = 0
		if l.e.Pending() != 0 || l.e.Spilled() != 0 {
			t.Fatalf("after Reset: Pending=%d Spilled=%d, want 0/0", l.e.Pending(), l.e.Spilled())
		}
		// The same slots now hold new residents.
		for i := 0; i < 5; i++ {
			l.at(w + 300 - Time(i))
		}
		if fired, want := l.drain(), []int{4, 3, 2, 1, 0}; !slices.Equal(fired, want) {
			t.Fatalf("post-Reset residents fired %v, want %v", fired, want)
		}
	})

	t.Run("resident overtaken by near events fires first at its cycle", func(t *testing.T) {
		l := newLockstep(t)
		far := l.at(w + 40) // spills
		l.at(60)            // wheel: advances the clock so w+40 enters the horizon
		if !l.step() {
			t.Fatal("no event to step")
		}
		l.at(w + 39) // near, earlier cycle: overtakes the resident
		l.at(w + 40) // near, same cycle, later seq: must wait for it
		l.at(w + 40)
		if fired, want := l.drain(), []int{1, 2, far, 3, 4}; !slices.Equal(fired, want) {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	})
}

// TestEngineHorizonBoundary pins the split rule: at schedule time, delay
// window-1 is the last wheel slot and delay window is the first spill
// resident — and the seam is invisible to ordering. In particular, two
// events at the same absolute cycle living in *different* levels (one
// scheduled far ahead into the spill list, one scheduled later into the wheel
// after the clock advanced) must still fire in seq (schedule) order.
func TestEngineHorizonBoundary(t *testing.T) {
	const w = DefaultWheelWindow
	e := NewEngine()
	var fired []int

	// d = window spills; d = window-1 lands in the wheel. The spilled
	// event is scheduled FIRST but fires LAST (later cycle) — and vice
	// versa for seq order at equal cycles below.
	e.After(w, func() { fired = append(fired, 1) })
	e.After(w-1, func() { fired = append(fired, 0) })
	e.Run(Infinity)
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 {
		t.Fatalf("boundary events fired %v, want [0 1]", fired)
	}

	// Same-cycle, cross-level seq tie: A spills (beyond horizon),
	// the clock advances to bring cycle w+50 inside the window, then B is
	// scheduled at the same cycle into the wheel. A has the lower seq and
	// must fire first even though it sits in the other structure.
	e2 := NewEngine()
	fired = fired[:0]
	e2.At(w+50, func() { fired = append(fired, 0) }) // spills (w+50 - 0 >= w)
	e2.At(150, func() {                              // wheel event advancing the clock
		e2.At(w+50, func() { fired = append(fired, 1) }) // wheel (w+50 - 150 < w)
	})
	e2.Run(Infinity)
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 {
		t.Fatalf("cross-level same-cycle events fired %v, want [0 1]", fired)
	}
}

// TestEngineSameCycleFIFOAcrossRollover schedules a burst of same-cycle
// events at a time whose bucket index wraps around the wheel (at mod window
// < now mod window) and asserts strict FIFO. The wrap means the occupancy
// scan crosses the bitmap seam; FIFO within the bucket must survive it.
func TestEngineSameCycleFIFOAcrossRollover(t *testing.T) {
	const window = DefaultWheelWindow
	e := NewEngine()
	var fired []int

	// Move the clock to window-2, then schedule the burst at cycle
	// window+3, whose bucket index is 3 — behind now's bucket window-2 in
	// the array, ahead of it in time.
	e.At(window-2, func() {
		for i := 0; i < 8; i++ {
			id := i
			e.At(window+3, func() { fired = append(fired, id) })
		}
	})
	e.Run(Infinity)
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8", len(fired))
	}
	for i, id := range fired {
		if id != i {
			t.Fatalf("rollover burst fired out of FIFO order: %v", fired)
		}
	}
}

// TestEnginePendingProcessed is the focused audit of the two counters under
// the wheel: Pending counts queued events (across both levels, free slab
// slots excluded), Processed counts fired events, and Reset rewinds both.
func TestEnginePendingProcessed(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("fresh engine: Pending=%d Processed=%d, want 0/0", e.Pending(), e.Processed())
	}
	e.After(3, func() {})
	e.After(5, func() {})
	e.After(DefaultWheelWindow, func() {}) // overflow level
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after 3 schedules, want 3", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step found nothing despite Pending = 3")
	}
	if e.Pending() != 2 || e.Processed() != 1 {
		t.Fatalf("after one Step: Pending=%d Processed=%d, want 2/1", e.Pending(), e.Processed())
	}
	// The slab now holds free slots; they must not be counted.
	e.Run(Infinity)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after draining, want 0 (free slots not counted)", e.Pending())
	}
	if e.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", e.Processed())
	}
	e.After(700, func() {})
	e.Reset()
	if e.Pending() != 0 || e.Processed() != 0 || e.Now() != 0 {
		t.Fatalf("after Reset: Pending=%d Processed=%d Now=%d, want 0/0/0",
			e.Pending(), e.Processed(), e.Now())
	}
}

// TestEngineResetReuse certifies the arena property: a Reset engine behaves
// bit-identically to a fresh one, pre-Reset events never fire, and the
// reset itself (plus the subsequent steady state) allocates nothing.
func TestEngineResetReuse(t *testing.T) {
	workload := func(e *Engine) []Time {
		var fires []Time
		var step func()
		n := 0
		step = func() {
			fires = append(fires, e.Now())
			if n++; n < 40 {
				e.After(Time(n%9)+1, step)
				if n%5 == 0 {
					e.After(DefaultWheelWindow+300, step) // overflow-level traffic
					n++
				}
			}
		}
		e.After(2, step)
		e.Run(Infinity)
		return fires
	}

	fresh := NewEngine()
	want := workload(fresh)

	reused := NewEngine()
	// Dirty the engine: pending events in both levels, then Reset.
	reused.After(1, func() { t.Fatal("pre-Reset event survived Reset") })
	reused.After(DefaultWheelWindow+900, func() { t.Fatal("pre-Reset overflow event survived Reset") })
	reused.Reset()
	got := workload(reused)
	if len(got) != len(want) {
		t.Fatalf("reused engine fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire %d: reused at cycle %d, fresh at cycle %d", i, got[i], want[i])
		}
	}

	// Reset + re-run on a warmed slab must be allocation-free.
	h := &countingHandler{}
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.AfterEvent(Time(i%7), h, nil, 0)
	}
	e.Run(Infinity)
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		for i := 0; i < 64; i++ {
			e.AfterEvent(Time(i%7), h, nil, 0)
		}
		e.Run(Infinity)
	})
	if allocs != 0 {
		t.Fatalf("Reset+rerun allocated %.1f objects per round, want 0", allocs)
	}
}

// TestEngineWheelFuzz is the fuzz-style property test: random mixed-level
// command streams including Resets and Run(limit) legs,
// always checked against a reference rebuilt at each Reset. It runs under -race in CI
// (the engine is single-goroutine; the race run guards against unsynchronized
// global state sneaking into the scheduler).
func TestEngineWheelFuzz(t *testing.T) {
	const window = DefaultWheelWindow
	runsWithResidents := 0
	for trial := 0; trial < 60; trial++ {
		rng := NewRNG(uint64(trial)*13 + 99)
		e := NewEngine()
		ref := &refQueue{}

		var engFired, refFired []int
		nextID := 0

		for step := 0; step < 500; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				at := e.Now() + Time(rng.Uint64n(uint64(3*window)))
				id := nextID
				nextID++
				e.At(at, func() { engFired = append(engFired, id) })
				ref.schedule(at, id)
			case op == 18:
				if runLeg(t, e, ref, rng, int(window), &engFired, &refFired) {
					runsWithResidents++
				}
			case op == 19 && step > 0 && step%97 == 0: // rare full Reset
				e.Reset()
				*ref = refQueue{}
				engFired, refFired = engFired[:0], refFired[:0]
			default:
				engOK := e.Step()
				refID, refOK := ref.pop()
				if engOK != refOK {
					t.Fatalf("trial %d step %d: Step = %v, reference = %v", trial, step, engOK, refOK)
				}
				if refOK {
					if engFired[len(engFired)-1] != refID {
						t.Fatalf("trial %d step %d: engine fired %d, reference %d",
							trial, step, engFired[len(engFired)-1], refID)
					}
					refFired = append(refFired, refID)
				}
			}
		}
		for e.Step() {
		}
		for {
			id, ok := ref.pop()
			if !ok {
				break
			}
			refFired = append(refFired, id)
		}
		if len(engFired) != len(refFired) {
			t.Fatalf("trial %d: engine fired %d, reference %d",
				trial, len(engFired), len(refFired))
		}
		for i := range refFired {
			if engFired[i] != refFired[i] {
				t.Fatalf("trial %d: divergence at %d: %d vs %d",
					trial, i, engFired[i], refFired[i])
			}
		}
	}
	if runsWithResidents == 0 {
		t.Fatal("no Run leg began with a spill resident pending")
	}
}
