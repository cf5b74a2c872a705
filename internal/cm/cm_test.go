package cm

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Both policies fall back to the fixed backoff: a first attempt's restart
// (without drawing from the RNG, so the schemes that never randomize consume
// the same stream) and a retry without a usable notification.
func TestFixedDelays(t *testing.T) {
	rng, ref := sim.NewRNG(1), sim.NewRNG(1)
	if d := RandomRestart(rng, 0); d != FixedBackoffCycles {
		t.Fatalf("first-attempt restart = %d, want %d", d, FixedBackoffCycles)
	}
	if rng.Uint64() != ref.Uint64() {
		t.Fatal("a fixed restart drew from the RNG")
	}
	if d := NotifiedWait(0, 0, 100000); d != FixedBackoffCycles {
		t.Fatalf("unnotified retry = %d, want %d", d, FixedBackoffCycles)
	}
}

func TestRandomBackoffGrowsWithAttempts(t *testing.T) {
	rng := sim.NewRNG(7)
	const samples = 200
	mean := func(attempts int) float64 {
		var sum sim.Time
		for i := 0; i < samples; i++ {
			sum += RandomRestart(rng, attempts)
		}
		return float64(sum) / samples
	}
	m1, m10 := mean(1), mean(10)
	if m10 <= m1 {
		t.Fatalf("backoff not growing: mean(1)=%v mean(10)=%v", m1, m10)
	}
}

func TestRandomBackoffBounds(t *testing.T) {
	rng := sim.NewRNG(3)
	f := func(attempts uint8) bool {
		a := int(attempts)
		d := RandomRestart(rng, a)
		if d < FixedBackoffCycles {
			return false
		}
		bound := randomBackoffBase * sim.Time(a)
		if bound > randomBackoffCap {
			bound = randomBackoffCap
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
	rng := sim.NewRNG(9)
	for i := 0; i < 100; i++ {
		if d := RandomRestart(rng, 1<<20); d >= FixedBackoffCycles+randomBackoffCap {
			t.Fatalf("delay %d exceeded cap", d)
		}
	}
}

func TestPUNORetryUsesNotification(t *testing.T) {
	// T_est 500, guard 60: wait (500-60)/2 = 220 (half the estimate, so
	// that overshoot is bounded and undershoot converges by resleeping).
	if d := NotifiedWait(500, 60, 100000); d != 220 {
		t.Fatalf("notified retry = %d, want 220", d)
	}
	// T_est below guard: fall back to fixed.
	if d := NotifiedWait(50, 60, 100000); d != FixedBackoffCycles {
		t.Fatalf("short-notification retry = %d, want %d", d, FixedBackoffCycles)
	}
	// No notification: fixed.
	if d := NotifiedWait(0, 60, 100000); d != FixedBackoffCycles {
		t.Fatalf("unnotified retry = %d, want %d", d, FixedBackoffCycles)
	}
	// A tiny positive estimate still waits at least the fixed backoff.
	if d := NotifiedWait(65, 60, 100000); d != FixedBackoffCycles {
		t.Fatalf("tiny-notification retry = %d, want %d", d, FixedBackoffCycles)
	}
}

func TestPUNOWaitCapped(t *testing.T) {
	if d := NotifiedWait(1<<40, 60, 1000); d != 1000 {
		t.Fatalf("capped wait = %d, want 1000", d)
	}
}

// Every notified retry sleeps again, and the sleeps converge onto the
// nacker's commit: a requester that re-reads the nacker's shrinking
// remaining time after each wait reaches the guard band within a few
// retries, without ever overshooting it.
func TestPUNOResleepsOnEveryNotifiedRetry(t *testing.T) {
	const guard = 60
	remaining := sim.Time(50000)
	for retry := 0; remaining > guard; retry++ {
		if retry == 16 {
			t.Fatalf("waits did not converge: %d cycles left after 16 retries", remaining)
		}
		wait := NotifiedWait(remaining, guard, 100000)
		if wait < FixedBackoffCycles || wait >= remaining {
			t.Fatalf("retry %d: wait %d for %d remaining", retry, wait, remaining)
		}
		remaining -= wait
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
	// Anti-training an unknown site is a no-op.
	r.ObserveNonRMW(9, 9)
	if r.Len() != 1 || r.PromoteLoad(9, 9) {
		t.Fatal("unknown-site demotion changed the table")
	}
	// One more observation restores confidence 2.
	r.ObserveRMW(1, 0)
	if !r.PromoteLoad(1, 0) {
		t.Fatal("retrained load not promoted")
	}
}

func TestRMWPredCapacityFIFO(t *testing.T) {
	r := NewRMWPred()
	for i := 0; i < rmwCapacity+2; i++ {
		r.ObserveRMW(1, i)
	}
	if r.Len() != rmwCapacity {
		t.Fatalf("len = %d, want %d", r.Len(), rmwCapacity)
	}
	// Oldest two (op 0, 1) evicted; the newest rmwCapacity retained.
	if r.PromoteLoad(1, 0) || r.PromoteLoad(1, 1) {
		t.Fatal("evicted entries still promote")
	}
	for i := 2; i < rmwCapacity+2; i++ {
		if !r.PromoteLoad(1, i) {
			t.Fatalf("entry %d missing", i)
		}
	}
}

// A reset predictor behaves exactly as a fresh one: same contents (none),
// and the same eviction victims afterwards.
func TestRMWPredResetMatchesFresh(t *testing.T) {
	r := NewRMWPred()
	for i := 0; i < rmwCapacity+5; i++ {
		r.ObserveRMW(2, i)
	}
	r.Reset()
	if r.Len() != 0 || r.PromoteLoad(2, rmwCapacity) {
		t.Fatal("reset left entries behind")
	}
	fresh := NewRMWPred()
	for i := 0; i < rmwCapacity+3; i++ {
		r.ObserveRMW(3, i%(rmwCapacity+1))
		fresh.ObserveRMW(3, i%(rmwCapacity+1))
	}
	for i := 0; i <= rmwCapacity; i++ {
		if r.PromoteLoad(3, i) != fresh.PromoteLoad(3, i) {
			t.Fatalf("op %d: reset and fresh predictors disagree", i)
		}
	}
}
