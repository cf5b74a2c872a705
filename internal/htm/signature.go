package htm

import "repro/internal/mem"

// Signature is a pair of Bloom filters summarizing a transaction's read and
// write sets, as in LogTM-SE. Conflict checks against a signature can
// return false positives (spurious conflicts) but never false negatives,
// which preserves correctness while decoupling conflict detection from
// cache residency. The simulator offers signatures as an ablation backend.
type Signature struct {
	bits  int
	read  []uint64
	write []uint64
}

// NewSignature returns a signature with the given number of filter bits per
// set (rounded up to a multiple of 64). bits must be positive.
func NewSignature(bits int) *Signature {
	if bits <= 0 {
		panic("htm: non-positive signature size")
	}
	words := (bits + 63) / 64
	return &Signature{
		bits:  words * 64,
		read:  make([]uint64, words),
		write: make([]uint64, words),
	}
}

// roundSignatureBits returns the effective filter size NewSignature(bits)
// would report — the reuse check for recycled signatures.
func roundSignatureBits(bits int) int { return (bits + 63) / 64 * 64 }

// Bits returns the filter size in bits.
func (s *Signature) Bits() int { return s.bits }

// Two independent hash functions (H3-class XOR hashing is typical in
// hardware; here a multiplicative mix achieves the same distribution).
func (s *Signature) hash1(l mem.Line) int {
	x := uint64(l) >> 6
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	return int(x % uint64(s.bits))
}

func (s *Signature) hash2(l mem.Line) int {
	x := uint64(l) >> 6
	x *= 0xC2B2AE3D27D4EB4F
	x ^= x >> 31
	return int(x % uint64(s.bits))
}

func setBit(w []uint64, i int)       { w[i/64] |= 1 << (i % 64) }
func testBit(w []uint64, i int) bool { return w[i/64]&(1<<(i%64)) != 0 }

// InsertRead adds l to the read filter.
func (s *Signature) InsertRead(l mem.Line) {
	setBit(s.read, s.hash1(l))
	setBit(s.read, s.hash2(l))
}

// InsertWrite adds l to the write filter.
func (s *Signature) InsertWrite(l mem.Line) {
	setBit(s.write, s.hash1(l))
	setBit(s.write, s.hash2(l))
}

// TestRead reports possible membership of l in the read set.
func (s *Signature) TestRead(l mem.Line) bool {
	return testBit(s.read, s.hash1(l)) && testBit(s.read, s.hash2(l))
}

// TestWrite reports possible membership of l in the write set.
func (s *Signature) TestWrite(l mem.Line) bool {
	return testBit(s.write, s.hash1(l)) && testBit(s.write, s.hash2(l))
}

// Clear empties both filters.
func (s *Signature) Clear() {
	clear(s.read)
	clear(s.write)
}

// PopCount returns the number of set bits in the read and write filters,
// a cheap occupancy measure used by tests.
func (s *Signature) PopCount() (readBits, writeBits int) {
	for _, w := range s.read {
		readBits += popcount(w)
	}
	for _, w := range s.write {
		writeBits += popcount(w)
	}
	return
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
