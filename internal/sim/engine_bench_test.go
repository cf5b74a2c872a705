package sim

import "testing"

// benchDelays is the delay mix of the simulator's own event stream, from a
// census of a 16-node high-contention STAMP pass (561 109 events): 62% of
// events are scheduled 1-3 cycles ahead, 15% 4-15, 22% 16-63 and 0.9%
// 64 or more, never 0. The table is drawn once from a fixed seed, so every
// run replays the same schedule.
var benchDelays = func() [4096]Time {
	var d [4096]Time
	rng := NewRNG(11)
	for i := range d {
		switch p := rng.Intn(1000); {
		case p < 620:
			d[i] = 1 + Time(rng.Intn(3))
		case p < 770:
			d[i] = 4 + Time(rng.Intn(12))
		case p < 991:
			d[i] = 16 + Time(rng.Intn(48))
		default:
			d[i] = 64 + Time(rng.Intn(960))
		}
	}
	return d
}()

// Population of the benchmark queue: the census never saw more than 118
// events pending, and a node keeps at most one long timer, so a handful of
// spill residents sit beside the wheel for the whole run.
const (
	benchPending = 112
	benchSpilled = 4
	benchLong    = 3 * DefaultWheelWindow // a spill resident's re-arm delay
)

// reschedule keeps the queue at a constant population: every event it
// fires schedules its successor, a wheel event after the next delay of the
// mix and a spill resident (word 1) after benchLong cycles. It stops the
// engine after n events.
type reschedule struct {
	e    *Engine
	next int
	n    int
}

func (r *reschedule) OnEvent(_ any, word uint64) {
	if r.n--; r.n == 0 {
		r.e.Stop()
	}
	if word == 1 {
		r.e.AfterEvent(benchLong, r, nil, 1)
		return
	}
	r.e.AfterEvent(benchDelays[r.next&(len(benchDelays)-1)], r, nil, 0)
	r.next++
}

// BenchmarkEngineRun measures the host cost of one event through Run —
// schedule, pop and dispatch — at the simulator's bucket occupancy: a
// steady population of wheel events under the census delay mix plus a few
// spill residents. Each op is one fired event.
func BenchmarkEngineRun(b *testing.B) {
	e := NewEngine()
	r := &reschedule{e: e, n: b.N}
	for i := 0; i < benchPending-benchSpilled; i++ {
		e.AfterEvent(benchDelays[i], r, nil, 0)
	}
	for i := 0; i < benchSpilled; i++ {
		e.AfterEvent(benchLong+Time(i), r, nil, 1)
	}
	r.next = benchPending
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Infinity)
	b.StopTimer()
	if got := e.Processed(); got != uint64(b.N) {
		b.Fatalf("Run fired %d events, want %d", got, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
