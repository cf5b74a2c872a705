package sim

// Tests for the slab/free-list event queue introduced by the
// zero-allocation hot path: FIFO tie-breaking must survive heavy free-list
// reuse, and the whole queue must behave exactly like the original
// container/heap implementation, which the reference model below
// re-implements.

import (
	"container/heap"
	"testing"
)

// TestEngineFIFOAcrossFreeListReuse interleaves fire/schedule rounds so
// same-cycle events land on recycled slots in scrambled slab order, then
// checks they still run in insertion order.
func TestEngineFIFOAcrossFreeListReuse(t *testing.T) {
	e := NewEngine()
	// Warm the slab with slots freed in a non-trivial order: the even
	// slots fire (and free) first, then the odd ones.
	for i := 0; i < 32; i++ {
		e.At(Time(10+i%2), func() {})
	}
	e.Run(Infinity)

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
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refQueue mirrors the Engine's schedule/pop surface.
type refQueue struct {
	now Time
	seq uint64
	h   refHeap
}

func (q *refQueue) schedule(at Time, id int) {
	heap.Push(&q.h, &refEvent{at: at, seq: q.seq, id: id})
	q.seq++
}

func (q *refQueue) pop() (int, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	ev := heap.Pop(&q.h).(*refEvent)
	q.now = ev.at
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
// container/heap reference with an identical random schedule/pop command
// stream and asserts they fire the same events in the same order —
// the property the golden determinism files depend on.
func TestEngineMatchesContainerHeapReference(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := NewRNG(uint64(trial) + 1000)
		e := NewEngine()
		ref := &refQueue{}

		var engFired, refFired []int
		nextID := 0

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // schedule, biased toward few distinct times for ties
				at := e.Now() + Time(rng.Intn(8))
				id := nextID
				nextID++
				e.At(at, func() { engFired = append(engFired, id) })
				ref.schedule(at, id)
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
