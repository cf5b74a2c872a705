package core

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestTxLBFirstUpdateSetsAverage(t *testing.T) {
	b := NewTxLB(32)
	b.Update(1, 1000)
	if avg := b.Average(1); avg != 1000 {
		t.Fatalf("Average = %d, want 1000", avg)
	}
}

func TestTxLBRecencyWeightedFormula(t *testing.T) {
	b := NewTxLB(32)
	b.Update(1, 1000)
	b.Update(1, 2000)
	// (1000 + 2000) / 2 = 1500
	if avg := b.Average(1); avg != 1500 {
		t.Fatalf("Average = %d, want 1500", avg)
	}
	b.Update(1, 500)
	// (1500 + 500) / 2 = 1000
	if avg := b.Average(1); avg != 1000 {
		t.Fatalf("Average = %d, want 1000", avg)
	}
}

func TestTxLBUnknownStaticID(t *testing.T) {
	b := NewTxLB(32)
	if b.Average(9) != 0 {
		t.Fatal("unknown static tx should average 0")
	}
	if b.EstimateRemaining(9, 10) != 0 {
		t.Fatal("unknown static tx should estimate 0")
	}
}

func TestTxLBEstimateRemaining(t *testing.T) {
	b := NewTxLB(32)
	b.Update(1, 1000)
	if est := b.EstimateRemaining(1, 300); est != 700 {
		t.Fatalf("EstimateRemaining = %d, want 700", est)
	}
	if est := b.EstimateRemaining(1, 1000); est != 0 {
		t.Fatal("overdue instance should estimate 0")
	}
	if est := b.EstimateRemaining(1, 5000); est != 0 {
		t.Fatal("long-overdue instance should estimate 0")
	}
}

func TestTxLBCapacityEvictsLRU(t *testing.T) {
	b := NewTxLB(2)
	b.Update(1, 100)
	b.Update(2, 200)
	b.Average(1) // touch 1 so that 2 is LRU
	b.Update(3, 300)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if b.Average(2) != 0 {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if b.Average(1) != 100 || b.Average(3) != 300 {
		t.Fatal("survivors corrupted")
	}
	if b.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", b.Evictions)
	}
}

func TestTxLBGlobalAverage(t *testing.T) {
	b := NewTxLB(32)
	if b.GlobalAverage() != 0 {
		t.Fatal("empty buffer global average should be 0")
	}
	b.Update(1, 100)
	b.Update(2, 300)
	if g := b.GlobalAverage(); g != 200 {
		t.Fatalf("GlobalAverage = %d, want 200", g)
	}
}

func TestTxLBPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTxLB(0) did not panic")
		}
	}()
	NewTxLB(0)
}

// Property: the average is always between the min and max of observed
// lengths (convexity of the recency-weighted update).
func TestTxLBAverageBounded(t *testing.T) {
	f := func(lens []uint16) bool {
		if len(lens) == 0 {
			return true
		}
		b := NewTxLB(4)
		lo, hi := sim.Time(lens[0]), sim.Time(lens[0])
		for _, l := range lens {
			d := sim.Time(l)
			b.Update(1, d)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		avg := b.Average(1)
		return avg >= lo && avg <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the estimate never exceeds the tracked average.
func TestTxLBEstimateNeverExceedsAverage(t *testing.T) {
	f := func(length uint16, elapsed uint16) bool {
		b := NewTxLB(4)
		b.Update(1, sim.Time(length)+1)
		est := b.EstimateRemaining(1, sim.Time(elapsed))
		return est <= b.Average(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTxLBResetEqualsNew: a used buffer Reset to the same capacity is
// indistinguishable from a new one (and to another capacity, resized).
func TestTxLBResetEqualsNew(t *testing.T) {
	b := NewTxLB(2)
	b.Update(1, 100)
	b.Update(2, 200)
	b.Update(3, 300) // evicts
	b.Reset(2)
	if b.Len() != 0 || b.Updates != 0 || b.Evictions != 0 || b.GlobalAverage() != 0 || b.Average(1) != 0 {
		t.Fatalf("Reset left state behind: %+v", b)
	}
	b.Update(7, 50)
	fresh := NewTxLB(2)
	fresh.Update(7, 50)
	if b.Average(7) != fresh.Average(7) || b.Len() != fresh.Len() {
		t.Fatal("reset buffer diverged from a new one")
	}
	b.Reset(4)
	for id := 0; id < 4; id++ {
		b.Update(id, 10)
	}
	if b.Len() != 4 || b.Evictions != 0 {
		t.Fatalf("Reset(4) did not resize: len %d, evictions %d", b.Len(), b.Evictions)
	}
}
