package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20, 10, 5} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run(Infinity)
	want := []Time{5, 10, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at cycle %d, want %d", i, got[i], want[i])
		}
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(7, func() { order = append(order, i) })
	}
	e.Run(Infinity)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events reordered: pos %d got %d", i, v)
		}
	}

	// Closure and handler events share one insertion sequence: mixed on
	// one cycle they run in scheduling order.
	t.Run("mixed", func(t *testing.T) {
		e := NewEngine()
		var order []int
		h := &funcHandler{f: func(word uint64) { order = append(order, int(word)) }}
		for i := 0; i < 12; i++ {
			i := i
			if i%2 == 0 {
				e.At(9, func() { order = append(order, i) })
			} else {
				e.AtEvent(9, h, nil, uint64(i))
			}
		}
		e.Run(Infinity)
		want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Fatalf("mixed same-cycle order %v, want %v", order, want)
		}
	})
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func() {
		e.After(25, func() { fired = e.Now() })
	})
	e.Run(Infinity)
	if fired != 125 {
		t.Fatalf("After fired at %d, want 125", fired)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(10, func() {})
	})
	e.Run(Infinity)
}

func TestEngineRunLimitStopsClock(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(1000, func() { ran = true })
	end := e.Run(500)
	if end != 500 {
		t.Fatalf("Run returned %d, want 500", end)
	}
	if ran {
		t.Fatal("event beyond limit ran")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run(Infinity)
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
}

// Property: for any set of scheduled times, the engine fires them in
// non-decreasing order and fires all of them.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, raw := range times {
			e.At(Time(raw), func() { fired = append(fired, e.Now()) })
		}
		e.Run(Infinity)
		if len(fired) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// Same multiset of times.
		want := make([]Time, len(times))
		for i, raw := range times {
			want[i] = Time(raw)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 42; i++ {
		e.At(Time(i), func() {})
	}
	e.Run(Infinity)
	if e.Processed() != 42 {
		t.Fatalf("Processed = %d, want 42", e.Processed())
	}
}

// TestEventSlotSize pins a slot to one 64-byte cache line: the pop and
// schedule paths each touch a slot per event, and a slot that straddles two
// lines costs a second miss.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(eventSlot{}); got != 64 {
		t.Fatalf("eventSlot is %d bytes, want 64", got)
	}
}

// funcHandler adapts a closure to Handler for tests that need side effects.
type funcHandler struct{ f func(word uint64) }

func (h *funcHandler) OnEvent(arg any, word uint64) { h.f(word) }

// TestStep: Step runs exactly the next event in (at, seq) order, moves the
// clock to it, and reports false once the queue drains or the engine stops.
func TestStep(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	h := &funcHandler{f: func(word uint64) { fired = append(fired, word) }}
	e.AtEvent(10, h, nil, 1)
	e.AtEvent(5, h, nil, 2)
	if !e.Step() || e.Now() != 5 || fmt.Sprint(fired) != "[2]" {
		t.Fatalf("first Step: clock %d, fired %v; want clock 5, fired [2]", e.Now(), fired)
	}
	if !e.Step() || e.Now() != 10 || fmt.Sprint(fired) != "[2 1]" {
		t.Fatalf("second Step: clock %d, fired %v; want clock 10, fired [2 1]", e.Now(), fired)
	}
	if e.Step() {
		t.Fatal("Step on a drained engine returned true")
	}
	e.AtEvent(20, h, nil, 3)
	e.Stop()
	if e.Step() {
		t.Fatal("Step on a stopped engine returned true")
	}
}
