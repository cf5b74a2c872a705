package core

import (
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

const pline = mem.Line(0x1000)

func newPred(clock *sim.Time) *Predictor {
	return NewPredictor(PredictorConfig{Nodes: 16}, func() sim.Time { return *clock })
}

func TestObserveMakesEntryValid(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	if p.Valid(3) {
		t.Fatal("fresh entry valid")
	}
	p.ObserveRequest(3, 100, 0)
	if !p.Valid(3) {
		t.Fatal("entry invalid after observe (0 -> 2 rule)")
	}
	prio, ok := p.PriorityOf(3)
	if !ok || prio != 100 {
		t.Fatalf("PriorityOf = %d/%v", prio, ok)
	}
}

func TestPredictUnicastFollowsUD(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(1, 10, 0) // oldest
	p.ObserveRequest(5, 30, 0)
	p.UpdateUD(pline, []int{1, 5})

	dest, ok := p.PredictUnicast(pline, []int{1, 5}, 9, 50)
	if !ok || dest != 1 {
		t.Fatalf("PredictUnicast = %d/%v, want 1/true", dest, ok)
	}
}

func TestNoUnicastWhenRequesterOlder(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(1, 100, 0)
	p.UpdateUD(pline, []int{1})
	// Requester priority 10 is older than sharer's 100: multicast.
	if _, ok := p.PredictUnicast(pline, []int{1}, 9, 10); ok {
		t.Fatal("unicast predicted for an older requester")
	}
	if p.FallbackReqOlder != 1 {
		t.Fatal("requester-older fallback not counted")
	}
}

func TestNoUnicastWithoutTargets(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(1, 10, 0)
	if _, ok := p.PredictUnicast(pline, nil, 9, 50); ok {
		t.Fatal("unicast with no forward targets")
	}
	if p.FallbackNoUD != 1 {
		t.Fatal("noUD fallback not counted")
	}
}

func TestUnicastOnlyToActualSharers(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(1, 10, 0) // node 1 oldest but not a sharer
	p.ObserveRequest(5, 30, 0)
	dest, ok := p.PredictUnicast(pline, []int{5, 7}, 9, 50)
	if !ok || dest != 5 {
		t.Fatalf("PredictUnicast = %d/%v, want 5/true (best valid sharer)", dest, ok)
	}
}

func TestUpdateUDPicksHighestValidPriority(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(2, 40, 0)
	p.ObserveRequest(6, 20, 0)
	p.ObserveRequest(9, 70, 0)
	p.UpdateUD(pline, []int{2, 6, 9})
	dest, ok := p.PredictUnicast(pline, []int{2, 6, 9}, 12, 100)
	if !ok || dest != 6 {
		t.Fatalf("UD = %d/%v, want 6 (priority 20)", dest, ok)
	}
}

func TestUpdateUDSkipsInvalidEntries(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(2, 40, 0)
	// Node 6 never observed: validity 0, cannot be UD.
	p.UpdateUD(pline, []int{2, 6})
	dest, ok := p.PredictUnicast(pline, []int{2, 6}, 12, 100)
	if !ok || dest != 2 {
		t.Fatalf("UD = %d/%v, want 2", dest, ok)
	}
}

func TestUpdateUDDeletesWhenNoValidSharer(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(2, 40, 0)
	p.UpdateUD(pline, []int{2})
	p.Misprediction(pline, 2, htm.NoPriority) // sharer idle: invalidates node 2
	p.UpdateUD(pline, []int{2})
	if _, ok := p.PredictUnicast(pline, []int{2}, 12, 100); ok {
		t.Fatal("unicast after UD should have been deleted")
	}
}

func TestMispredictionInvalidatesIdleEntry(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(4, 10, 0)
	if !p.Valid(4) {
		t.Fatal("setup failed")
	}
	p.Misprediction(pline, 4, htm.NoPriority)
	if p.Valid(4) {
		t.Fatal("entry valid after idle-sharer misprediction feedback")
	}
}

func TestMispredictionRefreshesActiveEntry(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(4, 10, 0) // stale: node 4 has since started prio 900
	p.Misprediction(pline, 4, 900)
	if !p.Valid(4) {
		t.Fatal("refreshed entry should stay valid")
	}
	if prio, _ := p.PriorityOf(4); prio != 900 {
		t.Fatalf("refreshed prio = %d, want 900", prio)
	}
	// The refreshed (younger) priority must stop attracting unicasts from
	// older requesters.
	if _, ok := p.PredictUnicast(pline, []int{4}, 9, 500); ok {
		t.Fatal("unicast to a sharer now known to be younger")
	}
}

// With no transaction-length hint the rollover period sits on its floor,
// minTimeout (64 cycles), so the decay clock ticks at 64, 128, 192, ...

func TestValidityDecaysOverTime(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(3, 10, 0) // validity 2, decay clock armed
	if !p.Valid(3) {
		t.Fatal("setup failed")
	}
	// One timeout: validity 2 -> 1 (no longer usable).
	now = 100
	p.decay()
	if p.Valid(3) {
		t.Fatal("validity did not decay after timeout")
	}
	// Re-observing from validity 1 increments to 2 again.
	p.ObserveRequest(3, 11, 0)
	if !p.Valid(3) {
		t.Fatal("re-observe did not restore validity")
	}
}

func TestValiditySaturatesAtThree(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	for i := 0; i < 10; i++ {
		p.ObserveRequest(3, 10, 0)
	}
	// Saturated at 3: two decays leave validity 1 (invalid), three leave 0.
	now = 100
	p.decay()
	if !p.Valid(3) {
		t.Fatal("validity 3 should survive one decay")
	}
	now = 200
	p.decay()
	if p.Valid(3) {
		t.Fatal("validity should be <= 1 after three decays")
	}
}

func TestDisableValidityAblation(t *testing.T) {
	var now sim.Time
	cfg := PredictorConfig{Nodes: 16}
	cfg.DisableValidity = true
	p := NewPredictor(cfg, func() sim.Time { return now })
	p.ObserveRequest(3, 10, 0)
	now = 1 << 30
	p.decay()
	if !p.Valid(3) {
		t.Fatal("validity decayed despite ablation flag")
	}
}

func TestAdaptiveTimeoutTracksAvgLen(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	if p.timeoutPeriod() != 64 {
		t.Fatalf("initial period = %d, want MinTimeout 64", p.timeoutPeriod())
	}
	p.ObserveRequest(1, 10, 1000)
	if p.timeoutPeriod() != 16000 {
		t.Fatalf("period = %d, want 16000 (16x avg)", p.timeoutPeriod())
	}
	p.ObserveRequest(2, 20, 2000)
	if p.timeoutPeriod() != 24000 {
		t.Fatalf("period = %d, want 24000 (16x EWMA)", p.timeoutPeriod())
	}
}

func TestDecisionLatency(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	if p.DecisionLatency() != 2 {
		t.Fatalf("DecisionLatency = %d, want 2", p.DecisionLatency())
	}
}

// TestPredictorResetEqualsNew: a trained predictor Reset under the same
// config forgets everything a new one does not know — P-Buffer, confidence,
// counters, the pending rollover — and keeps its clock.
func TestPredictorResetEqualsNew(t *testing.T) {
	var now sim.Time
	p := newPred(&now)
	p.ObserveRequest(1, 10, 500)
	p.ObserveRequest(5, 30, 500)
	p.UnicastResolved(false)
	p.MulticastResolved(true)
	p.PredictUnicast(pline, nil, 9, 50) // a counted fallback
	now = 1 << 20
	p.Reset(PredictorConfig{Nodes: 16})
	if p.Valid(1) || p.Valid(5) || p.Confidence() != 1 || p.Benefit() != 0 || p.FallbackNoUD != 0 {
		t.Fatalf("Reset left state behind: %+v", p)
	}
	// Same observable behaviour as a new predictor from here on.
	fresh := newPred(&now)
	for _, q := range []*Predictor{p, fresh} {
		q.ObserveRequest(2, 7, 100)
		q.UpdateUD(pline, []int{2})
	}
	d1, ok1 := p.PredictUnicast(pline, []int{2}, 9, 50)
	d2, ok2 := fresh.PredictUnicast(pline, []int{2}, 9, 50)
	if d1 != d2 || ok1 != ok2 {
		t.Fatalf("reset predictor predicts %d/%v, new one %d/%v", d1, ok1, d2, ok2)
	}
	p.Reset(PredictorConfig{Nodes: 4})
	if _, ok := p.PriorityOf(3); ok {
		t.Fatal("resized predictor kept an entry")
	}
}
