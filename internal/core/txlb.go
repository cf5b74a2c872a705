package core

import "repro/internal/sim"

// TxLBEntries is the TxLB capacity of the paper's Table II machine.
const TxLBEntries = 32

// TxLB is the per-node Transaction Length Buffer (Sec. III-D, Fig. 6): one
// entry per static transaction tracking the recency-weighted average length
// of its dynamic instances. The buffer has a bounded number of entries as
// in hardware; on overflow the least recently touched entry is replaced
// (the paper notes overflow is rare — STAMP's largest workload has 15
// static transactions).
//
// Entries live in a flat, insertion-ordered slice with a map used only as
// an index: every iteration (the eviction scan, GlobalAverage's float sum)
// walks the slice, so no result ever depends on Go's randomized map order.
type TxLB struct {
	capacity int
	index    map[int]int // staticID -> position in entries
	entries  []txlbEntry
	tick     uint64
}

type txlbEntry struct {
	id   int // staticID, so eviction can fix the index
	avg  float64
	used uint64
}

// NewTxLB returns a buffer with the given entry capacity.
func NewTxLB(capacity int) *TxLB {
	b := &TxLB{}
	b.Reset(capacity)
	return b
}

// Reset returns the buffer to the state NewTxLB(capacity) produces, reusing
// the index map and the entry array when the capacity is unchanged.
func (b *TxLB) Reset(capacity int) {
	if capacity <= 0 {
		panic("core: TxLB needs positive capacity")
	}
	index, entries := b.index, b.entries[:0]
	if capacity != b.capacity {
		index = make(map[int]int, capacity)
		entries = make([]txlbEntry, 0, capacity)
	} else {
		clear(index)
	}
	*b = TxLB{capacity: capacity, index: index, entries: entries}
}

// Len returns the number of tracked static transactions.
func (b *TxLB) Len() int { return len(b.entries) }

// Update folds a committed dynamic instance's length into the static
// transaction's average using the paper's formula (1):
//
//	StaticTxLen_new = (StaticTxLen_prev + DynTxLen) / 2
func (b *TxLB) Update(staticID int, dynLen sim.Time) {
	b.tick++
	if i, ok := b.index[staticID]; ok {
		e := &b.entries[i]
		e.avg = (e.avg + float64(dynLen)) / 2
		e.used = b.tick
		return
	}
	if len(b.entries) >= b.capacity {
		b.evictLRU()
	}
	b.index[staticID] = len(b.entries)
	b.entries = append(b.entries, txlbEntry{id: staticID, avg: float64(dynLen), used: b.tick})
}

// evictLRU drops the least recently touched entry. used ticks are unique
// (tick is monotonic), so the strict < scan picks the same victim in any
// order — and the slice walk makes the order fixed anyway.
func (b *TxLB) evictLRU() {
	victim := 0
	oldest := ^uint64(0)
	for i := range b.entries {
		if b.entries[i].used < oldest {
			oldest = b.entries[i].used
			victim = i
		}
	}
	delete(b.index, b.entries[victim].id)
	last := len(b.entries) - 1
	if victim != last {
		b.entries[victim] = b.entries[last]
		b.index[b.entries[victim].id] = victim
	}
	b.entries = b.entries[:last]
}

// Average returns the tracked average length of staticID, or 0 if unknown.
func (b *TxLB) Average(staticID int) sim.Time {
	b.tick++
	if i, ok := b.index[staticID]; ok {
		b.entries[i].used = b.tick
		return sim.Time(b.entries[i].avg)
	}
	return 0
}

// EstimateRemaining returns T_est for a running instance of staticID that
// has already executed `elapsed` cycles: the tracked average minus the
// elapsed time, or 0 when unknown or already exceeded (no notification).
func (b *TxLB) EstimateRemaining(staticID int, elapsed sim.Time) sim.Time {
	avg := b.Average(staticID)
	if avg == 0 || elapsed >= avg {
		return 0
	}
	return avg - elapsed
}

// GlobalAverage returns the mean of all tracked averages — the per-node
// average transaction length hint piggybacked on coherence requests for the
// directory's adaptive timeout. The float sum runs over the flat slice, so
// rounding is identical on every call with the same contents.
func (b *TxLB) GlobalAverage() sim.Time {
	if len(b.entries) == 0 {
		return 0
	}
	var sum float64
	for i := range b.entries {
		sum += b.entries[i].avg
	}
	return sim.Time(sum / float64(len(b.entries)))
}
