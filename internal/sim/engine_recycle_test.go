package sim

// Tests for the slab/free-list event queue introduced by the
// zero-allocation hot path: slot recycling must never let a stale EventID
// cancel a later event (the ABA hazard the generation counter exists for),
// FIFO tie-breaking must survive heavy free-list reuse, and the whole queue
// must behave exactly like the original container/heap implementation,
// which the reference model below re-implements.

import (
	"container/heap"
	"testing"
)

// TestEngineCancelRecycledSlotIsNoOp forces a slot to be recycled for a new
// event and asserts that the old EventID cannot cancel the new tenant.
func TestEngineCancelRecycledSlotIsNoOp(t *testing.T) {
	e := NewEngine()
	stale := e.At(1, func() {})
	e.Run(Infinity) // fires the event; its slot goes on the free list

	ran := false
	fresh := e.At(5, func() { ran = true })
	if fresh.slot != stale.slot {
		t.Fatalf("expected slot reuse: stale slot %d, fresh slot %d", stale.slot, fresh.slot)
	}
	if fresh.gen == stale.gen {
		t.Fatal("recycled slot did not bump its generation")
	}
	if e.Cancel(stale) {
		t.Fatal("Cancel of a stale EventID returned true")
	}
	if e.Pending() != 1 {
		t.Fatalf("stale Cancel removed the recycled slot's event: pending = %d", e.Pending())
	}
	e.Run(Infinity)
	if !ran {
		t.Fatal("event on the recycled slot never ran")
	}
	// And the now-fired fresh ID is itself stale.
	if e.Cancel(fresh) {
		t.Fatal("Cancel of a fired EventID returned true")
	}
}

// TestEngineCancelAfterManyRecycles cycles one slot through many
// generations and checks every historical EventID stays dead.
func TestEngineCancelAfterManyRecycles(t *testing.T) {
	e := NewEngine()
	var ids []EventID
	for i := 0; i < 100; i++ {
		ids = append(ids, e.At(e.Now()+1, func() {}))
		e.Run(Infinity)
	}
	live := e.At(e.Now()+1, func() {})
	for i, id := range ids {
		if e.Cancel(id) {
			t.Fatalf("Cancel of generation-%d EventID returned true", i)
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("stale cancels disturbed the queue: pending = %d, want 1", e.Pending())
	}
	if !e.Cancel(live) {
		t.Fatal("Cancel of the live event failed after stale cancels")
	}
}

// TestEngineFIFOAcrossFreeListReuse interleaves fire/schedule rounds so
// same-cycle events land on recycled slots in scrambled slab order, then
// checks they still run in insertion order.
func TestEngineFIFOAcrossFreeListReuse(t *testing.T) {
	e := NewEngine()
	// Warm the slab with slots freed in a non-trivial order.
	var warm []EventID
	for i := 0; i < 32; i++ {
		warm = append(warm, e.At(10, func() {}))
	}
	for i := 0; i < len(warm); i += 2 {
		e.Cancel(warm[i]) // frees even slots first
	}
	e.Run(Infinity) // fires (and frees) the odd slots in heap order

	var order []int
	for i := 0; i < 64; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run(Infinity)
	if len(order) != 64 {
		t.Fatalf("ran %d events, want 64", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle FIFO violated on recycled slots: pos %d got %d", i, v)
		}
	}
}

// ---- reference model ----------------------------------------------------

// refEvent/refHeap re-implement the original container/heap event queue, so
// the property test below can pit the slab queue against the exact
// semantics the rest of the simulator was validated on.
type refEvent struct {
	at  Time
	seq uint64
	id  int
	idx int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// refQueue mirrors the Engine's schedule/cancel/pop surface.
type refQueue struct {
	now Time
	seq uint64
	h   refHeap
}

func (q *refQueue) schedule(at Time, id int) *refEvent {
	ev := &refEvent{at: at, seq: q.seq, id: id}
	q.seq++
	heap.Push(&q.h, ev)
	return ev
}

func (q *refQueue) cancel(ev *refEvent) bool {
	if ev.idx < 0 {
		return false
	}
	heap.Remove(&q.h, ev.idx)
	ev.idx = -1
	return true
}

func (q *refQueue) pop() (int, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	ev := heap.Pop(&q.h).(*refEvent)
	q.now = ev.at
	ev.idx = -1
	return ev.id, true
}

// run mirrors Engine.Run(limit): it pops every event due at or before
// limit, in order, and parks the clock at limit when events remain beyond
// it.
func (q *refQueue) run(limit Time) []int {
	var ids []int
	for len(q.h) > 0 && q.h[0].at <= limit {
		id, _ := q.pop()
		ids = append(ids, id)
	}
	if len(q.h) > 0 {
		q.now = limit
	}
	return ids
}

// TestEngineMatchesContainerHeapReference drives the slab queue and the
// container/heap reference with an identical random schedule/cancel/pop
// command stream and asserts they fire the same events in the same order —
// the property the golden determinism files depend on.
func TestEngineMatchesContainerHeapReference(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := NewRNG(uint64(trial) + 1000)
		e := NewEngine()
		ref := &refQueue{}

		var engFired, refFired []int
		type pair struct {
			engID EventID
			refEv *refEvent
		}
		var live []pair
		nextID := 0

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // schedule, biased toward few distinct times for ties
				at := e.Now() + Time(rng.Intn(8))
				id := nextID
				nextID++
				engID := e.At(at, func() { engFired = append(engFired, id) })
				refEv := ref.schedule(at, id)
				live = append(live, pair{engID, refEv})
			case op < 7: // cancel a random previously issued (possibly dead) ID
				if len(live) == 0 {
					continue
				}
				p := live[rng.Intn(len(live))]
				got := e.Cancel(p.engID)
				want := ref.cancel(p.refEv)
				if got != want {
					t.Fatalf("trial %d step %d: Cancel = %v, reference = %v", trial, step, got, want)
				}
			default: // pop one event
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
		}
		// Drain both completely.
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
}

// TestEngineSteadyStateAllocFree certifies the engine's core property: once the
// slab has warmed up, scheduling and firing events allocates nothing —
// through AfterEvent, and through At and After with a pre-built closure,
// which rides in the slot's arg (a func value boxes without allocating).
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	h := countingHandler{}
	closures := 0
	tick := Event(func() { closures++ })
	round := func() {
		for i := 0; i < 64; i++ {
			switch i % 3 {
			case 0:
				e.AfterEvent(Time(i%7), &h, nil, 0)
			case 1:
				e.After(Time(i%7), tick)
			default:
				e.At(e.Now()+Time(i%5), tick)
			}
		}
		e.Run(Infinity)
	}
	// Warm-up: grow the slab to working size.
	round()

	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("steady-state AfterEvent/After/At + Run allocated %.1f objects per round, want 0", allocs)
	}
	if want := 42 * 102; closures != want {
		t.Fatalf("closure events ran %d times, want %d", closures, want)
	}
}

type countingHandler struct{ n int }

func (h *countingHandler) OnEvent(any, uint64) { h.n++ }
