package cm

import "testing"

func newATS(n int) *ATSGroup {
	g := &ATSGroup{}
	g.Reset(n)
	return g
}

func raiseIntensity(g *ATSGroup, node int) {
	for i := 0; i < 10; i++ {
		g.End(node, true)
	}
}

func TestATSLowIntensityProceedsImmediately(t *testing.T) {
	g := newATS(4)
	if !g.Admit(0) {
		t.Fatal("low-intensity begin was delayed")
	}
	if g.Serialized != 0 {
		t.Fatal("low-intensity begin counted as serialized")
	}
}

func TestATSHighIntensitySerializes(t *testing.T) {
	g := newATS(4)
	raiseIntensity(g, 0)
	raiseIntensity(g, 1)
	if g.intensity[0] < atsThreshold {
		t.Fatal("setup: intensity did not rise")
	}
	if !g.Admit(0) {
		t.Fatal("node 0 did not take the free token")
	}
	if g.Admit(1) {
		t.Fatal("node 1 began while node 0 held the token")
	}
	// Node 0's attempt ends: node 1 gets the token.
	if next := g.End(0, false); next != 1 {
		t.Fatalf("End released %d, want 1", next)
	}
	// Node 1 ends with nobody waiting: token freed.
	if next := g.End(1, true); next != -1 {
		t.Fatalf("End released %d with nobody waiting", next)
	}
	if !g.Admit(0) {
		t.Fatal("token not released")
	}
	if g.Serialized != 3 {
		t.Fatalf("Serialized = %d, want 3", g.Serialized)
	}
}

// Waiters are released oldest first, also after the ring wraps.
func TestATSQueueIsFIFOAcrossWrap(t *testing.T) {
	const n = 4
	g := newATS(n)
	for i := 0; i < n; i++ {
		raiseIntensity(g, i)
	}
	holder := 0
	if !g.Admit(holder) {
		t.Fatal("free token not taken")
	}
	queued := []int{1, 2, 3}
	for _, w := range queued {
		if g.Admit(w) {
			t.Fatalf("node %d began while the token was held", w)
		}
	}
	for round := 0; round < 3*n; round++ {
		// The releasing holder re-queues right away, so every slot of the
		// ring is reused.
		next := g.End(holder, true)
		if next != queued[0] {
			t.Fatalf("round %d: End released %d, want %d", round, next, queued[0])
		}
		if g.Admit(holder) {
			t.Fatalf("round %d: node %d began while %d held the token", round, holder, next)
		}
		queued = append(queued[1:], holder)
		holder = next
	}
}

func TestATSIntensityDecaysOnCommit(t *testing.T) {
	g := newATS(2)
	raiseIntensity(g, 0)
	hi := g.intensity[0]
	g.End(0, false)
	if g.intensity[0] >= hi {
		t.Fatal("commit did not lower intensity")
	}
	for i := 0; i < 20; i++ {
		g.End(0, false)
	}
	if g.intensity[0] >= atsThreshold {
		t.Fatal("intensity did not decay below threshold")
	}
}

func TestATSMixedPopulation(t *testing.T) {
	// A low-intensity node never waits even while the token is held.
	g := newATS(4)
	raiseIntensity(g, 0)
	g.Admit(0)
	if !g.Admit(2) {
		t.Fatal("low-intensity node blocked behind the token")
	}
}

func TestATSNotifyWithoutTokenIsNoop(t *testing.T) {
	g := newATS(2)
	if next := g.End(1, true); next != -1 || g.holder != -1 {
		t.Fatal("phantom token")
	}
}

// Reset returns a used group to the fresh state and reuses its arrays.
func TestATSReset(t *testing.T) {
	g := newATS(4)
	raiseIntensity(g, 0)
	raiseIntensity(g, 1)
	g.Admit(0)
	g.Admit(1)
	q := &g.queue[0]
	g.Reset(3)
	if g.holder != -1 || g.waiting != 0 || g.Serialized != 0 || g.intensity[0] != 0 || len(g.queue) != 3 {
		t.Fatal("reset left state behind")
	}
	if &g.queue[0] != q {
		t.Fatal("reset reallocated the queue")
	}
}
