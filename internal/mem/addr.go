// Package mem defines the simulated physical address space: cache-line
// geometry, static home-node (bank) interleaving, word-granularity line
// data, and a flat backing store.
package mem

import "fmt"

// Geometry constants for the simulated machine. A 64-byte line of eight
// 64-bit words matches the paper's system configuration.
const (
	LineBytes     = 64
	WordBytes     = 8
	WordsPerLine  = LineBytes / WordBytes
	lineOffsetBit = 6 // log2(LineBytes)
)

// Addr is a word-aligned physical address.
type Addr uint64

// Line is a cache-line-aligned address (the low lineOffsetBit bits are 0).
type Line uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(uint64(a) &^ (LineBytes - 1)) }

// WordIndex returns the index of a's word within its line, in [0,WordsPerLine).
func WordIndex(a Addr) int { return int(uint64(a)>>3) & (WordsPerLine - 1) }

// Word returns the i'th word address within line l.
func (l Line) Word(i int) Addr {
	if i < 0 || i >= WordsPerLine {
		panic(fmt.Sprintf("mem: word index %d out of range", i))
	}
	return Addr(uint64(l) + uint64(i*WordBytes))
}

// String implements fmt.Stringer.
func (l Line) String() string { return fmt.Sprintf("0x%x", uint64(l)) }

// HomeMap statically maps lines to home nodes (directory/L2 bank slices) by
// interleaving consecutive lines across banks, the "static cache bank
// directory" arrangement in the paper's Table II.
type HomeMap struct {
	banks int
}

// NewHomeMap returns a map over banks home nodes. banks must be positive.
func NewHomeMap(banks int) HomeMap {
	if banks <= 0 {
		panic("mem: non-positive bank count")
	}
	return HomeMap{banks: banks}
}

// Home returns the home node of line l.
func (h HomeMap) Home(l Line) int {
	return int((uint64(l) >> lineOffsetBit) % uint64(h.banks))
}

// Extend returns s lengthened to n (s itself when it is already that long).
// Every entry from len(s) up to n reads as zero, whether it comes from
// retained capacity or from a fresh array with room for 2n, so a dense
// LineID-indexed table reset by truncation never resurrects the last run's
// values, and repeated growth by ascending IDs amortizes to O(1). It is the
// growth rule of every such table. Hot callers guard the call with
// n > len(s), so their steady state never leaves the caller; the
// reallocation is kept out of line so that no inlining decision can place
// its allocation in a hot body.
func Extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		return extendAlloc(s, n)
	}
	clear(s[len(s):n])
	return s[:n]
}

// extendAlloc is Extend's reallocation: a zeroed array of length n and
// capacity 2n holding a copy of s.
//
//go:noinline
func extendAlloc[T any](s []T, n int) []T {
	t := make([]T, n, 2*n)
	copy(t, s)
	return t
}

// LineData is the word contents of one cache line.
type LineData [WordsPerLine]uint64

// Backing is the flat main-memory image: a dense LineID-indexed table of
// line contents (no per-line pointers, no hashing on the load/store path).
// Untouched lines read as zero. Backing is not safe for concurrent use; the
// simulator is single-threaded by design.
type Backing struct {
	it      *Interner
	data    []LineData // data[id-1]; slots beyond the high-water mark are zero
	stored  []bool     // stored[id-1]: line was ever stored (Touched)
	touched int
}

// NewBacking returns an empty (all-zero) memory image over a private
// interner (standalone use and tests).
func NewBacking() *Backing {
	return NewBackingOn(NewInterner())
}

// NewBackingOn returns an empty memory image sharing it with the rest of a
// memory system, so the LineIDs the coherence layer carries index this
// table directly.
func NewBackingOn(it *Interner) *Backing {
	return &Backing{it: it}
}

// Interner exposes the interner this image is indexed by.
func (b *Backing) Interner() *Interner { return b.it }

// ensure extends the dense tables to cover id.
func (b *Backing) ensure(id LineID) {
	if n := int(id); n > len(b.data) {
		b.data = Extend(b.data, n)
		b.stored = Extend(b.stored, n)
	}
}

// LoadID returns a copy of the line with the given LineID (0 or an ID past
// the table reads as zero — the line was never stored).
//
//puno:hot
func (b *Backing) LoadID(id LineID) LineData {
	if i := int(id); i > 0 && i <= len(b.data) {
		return b.data[i-1]
	}
	return LineData{}
}

// StoreID replaces the line with the given LineID. id must be a live ID of
// the backing's interner.
func (b *Backing) StoreID(id LineID, d LineData) {
	b.ensure(id)
	b.data[id-1] = d
	if !b.stored[id-1] {
		b.stored[id-1] = true
		b.touched++
	}
}

// Load returns a copy of line l.
func (b *Backing) Load(l Line) LineData {
	return b.LoadID(b.it.Lookup(l))
}

// Store replaces line l.
func (b *Backing) Store(l Line, d LineData) {
	b.StoreID(b.it.Intern(l), d)
}

// LoadWord reads one word.
func (b *Backing) LoadWord(a Addr) uint64 {
	if i := int(b.it.Lookup(LineOf(a))); i > 0 && i <= len(b.data) {
		return b.data[i-1][WordIndex(a)]
	}
	return 0
}

// StoreWord writes one word.
func (b *Backing) StoreWord(a Addr, v uint64) {
	id := b.it.Intern(LineOf(a))
	b.ensure(id)
	if !b.stored[id-1] {
		b.stored[id-1] = true
		b.touched++
	}
	b.data[id-1][WordIndex(a)] = v
}

// Touched returns the number of distinct lines ever stored.
func (b *Backing) Touched() int { return b.touched }

// ResetOn is Reset plus a rebind to a different interner — a machine arena
// switching between its private interner and a shard-shared one keeps the
// dense tables while re-indexing them under the new ID assignment.
func (b *Backing) ResetOn(it *Interner) {
	b.Reset()
	b.it = it
}

// Reset empties the image (every line reads as zero again), retaining the
// table's capacity so a reused Backing repopulates without reallocating.
// The interner is NOT reset: its owner decides when IDs are reassigned.
func (b *Backing) Reset() {
	b.data = b.data[:0]
	b.stored = b.stored[:0]
	b.touched = 0
}
