package noc

import (
	"testing"

	"repro/internal/sim"
)

// ReserveRoute is the accounting half of Send: for the same traffic in the
// same order it must reserve the same link schedule, charge the same
// statistics, and return exactly the delivery time Send would schedule.
func TestReserveRouteMatchesSend(t *testing.T) {
	cfg := DefaultConfig()
	sends := []struct {
		src, dst int
		class    Class
		flits    int
	}{
		{0, 15, ClassRequest, 1},
		{0, 15, ClassResponse, 5}, // same route: must queue behind the first
		{15, 0, ClassForward, 1},
		{5, 6, ClassResponse, 2},
	}

	engA := sim.NewEngine()
	meshA := New(cfg, engA)
	arrival := make(map[int]sim.Time)
	for i := 0; i < meshA.Nodes(); i++ {
		i := i
		meshA.Attach(i, func(payload any) { arrival[payload.(int)] = engA.Now() })
	}
	for i, s := range sends {
		meshA.Send(s.src, s.dst, s.class, s.flits, i)
	}
	engA.Run(sim.Infinity)

	engB := sim.NewEngine()
	meshB := New(cfg, engB)
	for i, s := range sends {
		at := meshB.ReserveRoute(engB.Now(), s.src, s.dst, s.class, s.flits)
		if want := arrival[i]; at != want {
			t.Errorf("ReserveRoute(#%d %d->%d) = %d, want Send's delivery time %d", i, s.src, s.dst, at, want)
		}
	}
	if meshA.Stats() != meshB.Stats() {
		t.Errorf("statistics diverged:\nSend:         %+v\nReserveRoute: %+v", meshA.Stats(), meshB.Stats())
	}
}

func TestReserveRouteRejectsZeroFlits(t *testing.T) {
	m := New(DefaultConfig(), sim.NewEngine())
	defer func() {
		if recover() == nil {
			t.Fatal("ReserveRoute with zero flits did not panic")
		}
	}()
	m.ReserveRoute(0, 0, 1, ClassRequest, 0)
}

func TestMinRemoteLatency(t *testing.T) {
	want := MinRemoteLatency
	m := New(DefaultConfig(), sim.NewEngine())
	// The bound is achieved by a one-hop single-flit message on idle links
	// and is a floor for everything else.
	if got := m.ReserveRoute(0, 0, 1, ClassRequest, 1); got != want {
		t.Fatalf("one-hop single-flit delivery at %d, want the bound %d", got, want)
	}
	if got := m.ReserveRoute(0, 0, 15, ClassResponse, 5); got < want {
		t.Fatalf("multi-hop delivery at %d, below the claimed minimum %d", got, want)
	}
}

func TestStatsAccumulate(t *testing.T) {
	var a, b Stats
	for c := 0; c < len(a.Messages); c++ {
		a.Messages[c] = uint64(c + 1)
		a.Flits[c] = uint64(10 * (c + 1))
		a.RouterTraversal[c] = uint64(100 * (c + 1))
		b.Messages[c] = 1
		b.Flits[c] = 2
		b.RouterTraversal[c] = 3
	}
	a.TotalLatency, a.QueueingDelay = 50, 5
	b.TotalLatency, b.QueueingDelay = 7, 1
	a.Accumulate(b)
	for c := 0; c < len(a.Messages); c++ {
		if a.Messages[c] != uint64(c+2) || a.Flits[c] != uint64(10*(c+1)+2) || a.RouterTraversal[c] != uint64(100*(c+1)+3) {
			t.Fatalf("class %d accumulated wrong: %+v", c, a)
		}
	}
	if a.TotalLatency != 57 || a.QueueingDelay != 6 {
		t.Fatalf("latency accumulated wrong: total=%d queueing=%d", a.TotalLatency, a.QueueingDelay)
	}
}

func TestMeshReset(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	m := New(cfg, eng)
	m.Attach(0, func(any) {})
	m.ReserveRoute(0, 0, 1, ClassRequest, 1)

	// Same topology: arrays reused, state cleared.
	m.Reset(cfg, eng)
	if m.Stats() != (Stats{}) {
		t.Fatalf("Reset left statistics: %+v", m.Stats())
	}
	if got := m.ReserveRoute(0, 0, 1, ClassRequest, 1); got != MinRemoteLatency {
		t.Fatalf("link state survived Reset: delivery at %d, want %d", got, MinRemoteLatency)
	}

	// Different topology: full rebuild.
	small := cfg
	small.Width, small.Height = 2, 1
	m.Reset(small, eng)
	if m.Nodes() != 2 {
		t.Fatalf("Reset to 2x1 left %d nodes", m.Nodes())
	}
}
