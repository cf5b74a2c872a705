package cm

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestFixedDelays(t *testing.T) {
	f := NewFixed()
	rng := sim.NewRNG(1)
	if f.RetryDelay(rng, 0, 0) != FixedBackoffCycles {
		t.Fatal("retry delay not fixed 20")
	}
	if f.RetryDelay(rng, 10, 5000) != FixedBackoffCycles {
		t.Fatal("baseline must ignore notifications and retry count")
	}
	if f.RestartDelay(rng, 3) != FixedBackoffCycles {
		t.Fatal("restart delay not fixed")
	}
	if f.PromoteLoad(1, 2) || f.Notify() {
		t.Fatal("baseline must not promote or notify")
	}
	if f.Name() != "Baseline" {
		t.Fatal("name wrong")
	}
}

func TestRandomBackoffGrowsWithAttempts(t *testing.T) {
	b := NewRandomBackoff()
	rng := sim.NewRNG(7)
	const samples = 200
	mean := func(attempts int) float64 {
		var sum sim.Time
		for i := 0; i < samples; i++ {
			sum += b.RestartDelay(rng, attempts)
		}
		return float64(sum) / samples
	}
	m1, m10 := mean(1), mean(10)
	if m10 <= m1 {
		t.Fatalf("backoff not growing: mean(1)=%v mean(10)=%v", m1, m10)
	}
}

func TestRandomBackoffBounds(t *testing.T) {
	b := NewRandomBackoff()
	rng := sim.NewRNG(3)
	f := func(attempts uint8) bool {
		a := int(attempts)
		d := b.RestartDelay(rng, a)
		if d < FixedBackoffCycles {
			return false
		}
		bound := b.Base * sim.Time(a)
		if bound > b.Cap {
			bound = b.Cap
		}
		if bound == 0 {
			return d == FixedBackoffCycles
		}
		return d < FixedBackoffCycles+bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBackoffCap(t *testing.T) {
	b := NewRandomBackoff()
	rng := sim.NewRNG(9)
	for i := 0; i < 100; i++ {
		if d := b.RestartDelay(rng, 1<<20); d >= FixedBackoffCycles+b.Cap {
			t.Fatalf("delay %d exceeded cap", d)
		}
	}
}

func TestRandomBackoffRetryStaysBaseline(t *testing.T) {
	b := NewRandomBackoff()
	if b.RetryDelay(sim.NewRNG(1), 5, 1000) != FixedBackoffCycles {
		t.Fatal("random backoff should not change polling backoff")
	}
}

func TestPUNORetryUsesNotification(t *testing.T) {
	p := NewPUNO(60)
	rng := sim.NewRNG(1)
	// T_est 500, guard 60: wait (500-60)/2 = 220 (half the estimate, so
	// that overshoot is bounded and undershoot converges by resleeping).
	if d := p.RetryDelay(rng, 0, 500); d != 220 {
		t.Fatalf("notified retry = %d, want 220", d)
	}
	// T_est below guard: fall back to fixed.
	if d := p.RetryDelay(rng, 0, 50); d != FixedBackoffCycles {
		t.Fatalf("short-notification retry = %d, want %d", d, FixedBackoffCycles)
	}
	// No notification: fixed.
	if d := p.RetryDelay(rng, 0, 0); d != FixedBackoffCycles {
		t.Fatalf("unnotified retry = %d, want %d", d, FixedBackoffCycles)
	}
	// A tiny positive estimate still waits at least the fixed backoff.
	if d := p.RetryDelay(rng, 0, 65); d != FixedBackoffCycles {
		t.Fatalf("tiny-notification retry = %d, want %d", d, FixedBackoffCycles)
	}
}

func TestPUNOWaitCapped(t *testing.T) {
	p := NewPUNO(60)
	p.MaxWait = 1000
	if d := p.RetryDelay(sim.NewRNG(1), 0, 1<<40); d != 1000 {
		t.Fatalf("capped wait = %d, want 1000", d)
	}
}

func TestPUNOResleepsOnEveryNotifiedRetry(t *testing.T) {
	p := NewPUNO(60)
	// Later retries still honour notifications.
	if d := p.RetryDelay(sim.NewRNG(1), 5, 500); d != 220 {
		t.Fatalf("retry 5 notified delay = %d, want 220", d)
	}
}

func TestPUNONotifies(t *testing.T) {
	p := NewPUNO(60)
	if !p.Notify() {
		t.Fatal("PUNO must enable notifications")
	}
	if p.RestartDelay(sim.NewRNG(1), 4) != FixedBackoffCycles {
		t.Fatal("PUNO restart backoff should match baseline")
	}
}

func TestRMWPredTrainsAndPromotes(t *testing.T) {
	r := NewRMWPred()
	if r.PromoteLoad(1, 0) {
		t.Fatal("untrained predictor promoted")
	}
	r.ObserveRMW(1, 0)
	if !r.PromoteLoad(1, 0) {
		t.Fatal("trained load not promoted")
	}
	if r.PromoteLoad(1, 1) || r.PromoteLoad(2, 0) {
		t.Fatal("promotion leaked to other loads")
	}
	if r.Trainings != 1 || r.Promotions != 1 {
		t.Fatalf("stats: trainings=%d promotions=%d", r.Trainings, r.Promotions)
	}
}

func TestRMWPredRepeatTrainingRaisesConfidence(t *testing.T) {
	r := NewRMWPred()
	r.ObserveRMW(1, 0)
	r.ObserveRMW(1, 0)
	if r.Len() != 1 {
		t.Fatalf("duplicate training created entries: len=%d", r.Len())
	}
	// Confidence saturated at 3: two demotions still leave it promotable,
	// the third does not.
	r.ObserveRMW(1, 0)
	r.ObserveNonRMW(1, 0)
	if !r.PromoteLoad(1, 0) {
		t.Fatal("one demotion from saturation should keep promoting")
	}
	r.ObserveNonRMW(1, 0)
	if r.PromoteLoad(1, 0) {
		t.Fatal("confidence below threshold still promoted")
	}
}

func TestRMWPredNegativeFeedback(t *testing.T) {
	r := NewRMWPred()
	r.ObserveRMW(1, 0) // confidence 2: promotable
	if !r.PromoteLoad(1, 0) {
		t.Fatal("freshly trained load not promoted")
	}
	r.ObserveNonRMW(1, 0) // confidence 1: below threshold
	if r.PromoteLoad(1, 0) {
		t.Fatal("demoted load still promoted")
	}
	if r.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", r.Demotions)
	}
	// Anti-training an unknown site is a no-op.
	r.ObserveNonRMW(9, 9)
	if r.Demotions != 1 {
		t.Fatal("unknown-site demotion counted")
	}
}

func TestRMWPredCapacityFIFO(t *testing.T) {
	r := NewRMWPred()
	r.Capacity = 4
	for i := 0; i < 6; i++ {
		r.ObserveRMW(1, i)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	// Oldest two (op 0, 1) evicted; newest four retained.
	if r.PromoteLoad(1, 0) || r.PromoteLoad(1, 1) {
		t.Fatal("evicted entries still promote")
	}
	for i := 2; i < 6; i++ {
		if !r.PromoteLoad(1, i) {
			t.Fatalf("entry %d missing", i)
		}
	}
}

func TestRMWPredBaselineBackoff(t *testing.T) {
	r := NewRMWPred()
	rng := sim.NewRNG(1)
	if r.RetryDelay(rng, 3, 100) != FixedBackoffCycles || r.RestartDelay(rng, 3) != FixedBackoffCycles {
		t.Fatal("RMW-Pred backoff should match baseline")
	}
	if r.Notify() {
		t.Fatal("RMW-Pred must not notify")
	}
}

func TestManagerInterfaceCompliance(t *testing.T) {
	for _, m := range []Manager{NewFixed(), NewRandomBackoff(), NewPUNO(60), NewRMWPred()} {
		if m.Name() == "" {
			t.Fatal("empty scheme name")
		}
	}
}
