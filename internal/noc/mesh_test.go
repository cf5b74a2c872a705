package noc

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestMesh(t *testing.T) (*Mesh, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	m := New(DefaultConfig(), eng)
	return m, eng
}

func TestRouteLength(t *testing.T) {
	m, _ := newTestMesh(t)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			r := m.Route(src, dst)
			if len(r) != m.Hops(src, dst) {
				t.Errorf("route %d->%d has %d links, want %d hops", src, dst, len(r), m.Hops(src, dst))
			}
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	m, _ := newTestMesh(t)
	a := m.Route(0, 15)
	b := m.Route(0, 15)
	if len(a) != len(b) {
		t.Fatal("same route computed different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("route not deterministic")
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	m, _ := newTestMesh(t)
	f := func(s, d uint8) bool {
		src, dst := int(s)%16, int(d)%16
		return m.Hops(src, dst) == m.Hops(dst, src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsCorners(t *testing.T) {
	m, _ := newTestMesh(t)
	// Node 0 is (0,0), node 15 is (3,3) in a 4x4 mesh.
	if h := m.Hops(0, 15); h != 6 {
		t.Fatalf("Hops(0,15) = %d, want 6", h)
	}
	if h := m.Hops(0, 0); h != 0 {
		t.Fatalf("Hops(0,0) = %d, want 0", h)
	}
	if h := m.Hops(0, 1); h != 1 {
		t.Fatalf("Hops(0,1) = %d, want 1", h)
	}
}

func TestSendDeliversPayload(t *testing.T) {
	m, eng := newTestMesh(t)
	var got any
	m.Attach(5, func(p any) { got = p })
	m.Attach(0, func(p any) {})
	m.Send(0, 5, ClassRequest, 1, "hello")
	eng.Run(sim.Infinity)
	if got != "hello" {
		t.Fatalf("payload = %v, want hello", got)
	}
}

func TestSendLatencyUncontended(t *testing.T) {
	m, eng := newTestMesh(t)
	var at sim.Time
	m.Attach(1, func(any) { at = eng.Now() })
	m.Send(0, 1, ClassRequest, 1, nil)
	eng.Run(sim.Infinity)
	// 1 hop: src router (4) + link (1) + dst router (4) = 9 cycles.
	if at != 9 {
		t.Fatalf("1-hop 1-flit latency = %d, want 9", at)
	}
}

func TestSendMultiFlitSerialization(t *testing.T) {
	m, eng := newTestMesh(t)
	var at sim.Time
	m.Attach(1, func(any) { at = eng.Now() })
	m.Send(0, 1, ClassResponse, 5, nil)
	eng.Run(sim.Infinity)
	// Head arrives at 9, tail 4 cycles later.
	if at != 13 {
		t.Fatalf("1-hop 5-flit latency = %d, want 13", at)
	}
}

func TestSendLocalLatency(t *testing.T) {
	m, eng := newTestMesh(t)
	var at sim.Time
	m.Attach(3, func(any) { at = eng.Now() })
	m.Send(3, 3, ClassRequest, 1, nil)
	eng.Run(sim.Infinity)
	if at != 1 {
		t.Fatalf("local latency = %d, want 1", at)
	}
}

func TestSendContentionDelaysSecondMessage(t *testing.T) {
	m, eng := newTestMesh(t)
	var first, second sim.Time
	n := 0
	m.Attach(1, func(any) {
		n++
		if n == 1 {
			first = eng.Now()
		} else {
			second = eng.Now()
		}
	})
	// Two 5-flit messages over the same link at the same cycle: the second
	// must queue behind the first's serialization.
	m.Send(0, 1, ClassResponse, 5, nil)
	m.Send(0, 1, ClassResponse, 5, nil)
	eng.Run(sim.Infinity)
	if second <= first {
		t.Fatalf("second delivery %d not after first %d", second, first)
	}
	if second-first != 5 {
		t.Fatalf("second trails first by %d, want 5 (flit serialization)", second-first)
	}
	st := m.Stats()
	if st.QueueingDelay == 0 {
		t.Fatal("expected nonzero queueing delay")
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	m, eng := newTestMesh(t)
	var at0, at1 sim.Time
	m.Attach(1, func(any) { at0 = eng.Now() })
	m.Attach(7, func(any) { at1 = eng.Now() })
	m.Send(0, 1, ClassRequest, 5, nil) // (0,0)->(1,0)
	m.Send(6, 7, ClassRequest, 5, nil) // (2,1)->(3,1)
	eng.Run(sim.Infinity)
	if at0 != at1 {
		t.Fatalf("disjoint paths delivered at %d and %d, want equal", at0, at1)
	}
	if m.Stats().QueueingDelay != 0 {
		t.Fatalf("queueing on disjoint paths = %d, want 0", m.Stats().QueueingDelay)
	}
}

func TestTraversalAccounting(t *testing.T) {
	m, eng := newTestMesh(t)
	m.Attach(3, func(any) {})
	m.Send(0, 3, ClassForward, 2, nil) // 3 hops -> 4 routers, 2 flits
	eng.Run(sim.Infinity)
	st := m.Stats()
	if got := st.RouterTraversal[ClassForward]; got != 8 {
		t.Fatalf("traversals = %d, want 8", got)
	}
	if st.TotalTraversals() != 8 {
		t.Fatalf("TotalTraversals = %d, want 8", st.TotalTraversals())
	}
	if st.Messages[ClassForward] != 1 || st.Flits[ClassForward] != 2 {
		t.Fatalf("message/flit accounting wrong: %+v", st)
	}
}

func TestLocalMessageCountsNoTraversal(t *testing.T) {
	m, eng := newTestMesh(t)
	m.Attach(3, func(any) {})
	m.Send(3, 3, ClassRequest, 1, nil)
	eng.Run(sim.Infinity)
	if got := m.Stats().TotalTraversals(); got != 0 {
		t.Fatalf("local message traversals = %d, want 0", got)
	}
}

func TestAverageHopsFourByFour(t *testing.T) {
	m, _ := newTestMesh(t)
	avg := m.AverageHops()
	// For a 4x4 mesh the mean over ordered distinct pairs is 8/3.
	if avg < 2.6 || avg > 2.72 {
		t.Fatalf("AverageHops = %v, want ~2.667", avg)
	}
}

func TestAverageLatencyPositive(t *testing.T) {
	m, _ := newTestMesh(t)
	if l := m.AverageLatency(1); l < 9 {
		t.Fatalf("AverageLatency(1) = %d, implausibly low", l)
	}
	if m.AverageLatency(5) <= m.AverageLatency(1) {
		t.Fatal("more flits should not lower latency")
	}
}

// arrivalRecorder is a Receive handler that logs each arrival's payload,
// destination word and cycle.
type arrivalRecorder struct {
	eng *sim.Engine
	got []arrivalAt
}

type arrivalAt struct {
	payload any
	dst     uint64
	at      sim.Time
}

func (r *arrivalRecorder) OnEvent(arg any, word uint64) {
	r.got = append(r.got, arrivalAt{arg, word, r.eng.Now()})
}

// TestReceiveGetsEveryArrival registers one handler for the whole mesh:
// local and remote arrivals reach it with the destination node in the word,
// at the same cycles the Attach path delivers them, and the Attach funcs
// it stands in for are never called.
func TestReceiveGetsEveryArrival(t *testing.T) {
	sends := []struct{ src, dst, flits int }{{0, 5, 1}, {3, 3, 1}, {15, 0, 5}, {5, 9, 2}}
	m, eng := newTestMesh(t)
	attachAt := map[int]sim.Time{}
	for i := 0; i < m.Nodes(); i++ {
		id := i
		m.Attach(i, func(any) { attachAt[id] = eng.Now() })
	}
	for _, s := range sends {
		m.Send(s.src, s.dst, ClassRequest, s.flits, nil)
	}
	eng.Run(sim.Infinity)

	m2, eng2 := newTestMesh(t)
	m2.Attach(5, func(any) { t.Error("Attach func called while a Receive handler is registered") })
	r := &arrivalRecorder{eng: eng2}
	m2.Receive(r)
	for i, s := range sends {
		m2.Send(s.src, s.dst, ClassRequest, s.flits, i)
	}
	eng2.Run(sim.Infinity)
	if len(r.got) != len(sends) {
		t.Fatalf("handler saw %d arrivals, want %d", len(r.got), len(sends))
	}
	for _, a := range r.got {
		s := sends[a.payload.(int)]
		if a.dst != uint64(s.dst) {
			t.Errorf("send %d->%d arrived with word %d", s.src, s.dst, a.dst)
		}
		if a.at != attachAt[s.dst] {
			t.Errorf("send %d->%d arrived at cycle %d, the Attach path at %d", s.src, s.dst, a.at, attachAt[s.dst])
		}
	}
	if m.Stats() != m2.Stats() {
		t.Errorf("stats differ by delivery path: %+v vs %+v", m.Stats(), m2.Stats())
	}
	if got := m2.Stats().TotalMessages(); got != uint64(len(sends)) {
		t.Errorf("TotalMessages = %d, want %d", got, len(sends))
	}

	// Reset drops the registration: the next Send finds no handler.
	m2.Reset(DefaultConfig(), eng2)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "node 5") {
			t.Errorf("Send after Reset panicked with %q, want a no-handler panic naming node 5", msg)
		}
	}()
	m2.Send(0, 5, ClassRequest, 1, nil)
}

func TestSendPanicsWithoutFlits(t *testing.T) {
	m, _ := newTestMesh(t)
	m.Attach(1, func(any) {})
	defer func() {
		if recover() == nil {
			t.Error("Send of a zero-flit message did not panic")
		}
	}()
	m.Send(0, 1, ClassRequest, 0, nil)
}

func TestSendPanicsWithoutHandler(t *testing.T) {
	m, _ := newTestMesh(t)
	m.Attach(0, func(any) {})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "node 9") {
			t.Errorf("Send to unattached node 9 panicked with %q, want a message naming it", msg)
		}
	}()
	m.Send(0, 9, ClassRequest, 1, nil)
}

// Property: delivery time always >= uncontended minimum and messages are
// never lost.
func TestSendDeliveryProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		eng := sim.NewEngine()
		m := New(DefaultConfig(), eng)
		delivered := 0
		for i := 0; i < 16; i++ {
			m.Attach(i, func(any) { delivered++ })
		}
		n := len(pairs)
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			src := int(pairs[i]) % 16
			dst := int(pairs[i]>>4) % 16
			m.Send(src, dst, ClassRequest, 1+int(pairs[i]>>8)%5, nil)
		}
		eng.Run(sim.Infinity)
		return delivered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if ClassRequest.String() != "request" || ClassForward.String() != "forward" || ClassResponse.String() != "response" {
		t.Fatal("Class.String mismatch")
	}
}

// A mesh whose link count overflows the route table's int16 indices is
// refused before any table is built.
func TestNewPanicsPastRouteTableRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 91x91 mesh (33124 links)")
		}
	}()
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 91, 91
	New(cfg, sim.NewEngine())
}

func TestSendRejectsZeroFlits(t *testing.T) {
	m := New(DefaultConfig(), sim.NewEngine())
	m.Attach(1, func(any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Send with zero flits did not panic")
		}
	}()
	m.Send(0, 1, ClassRequest, 0, nil)
}

func TestMeshReset(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	m := New(cfg, eng)
	m.Attach(1, func(any) {})
	m.Send(0, 1, ClassRequest, 1, nil)

	// Same topology: arrays reused, state cleared.
	m.Reset(cfg, eng)
	if m.Stats() != (Stats{}) {
		t.Fatalf("Reset left statistics: %+v", m.Stats())
	}
	// One hop, one flit, idle links: two router pipelines and one link.
	if got, want := m.route(0, 0, 1, ClassRequest, 1), 2*RouterStages+LinkCycles; got != want {
		t.Fatalf("link state survived Reset: delivery at %d, want %d", got, want)
	}

	// Different topology: full rebuild.
	small := cfg
	small.Width, small.Height = 2, 1
	m.Reset(small, eng)
	if m.Nodes() != 2 {
		t.Fatalf("Reset to 2x1 left %d nodes", m.Nodes())
	}
}
