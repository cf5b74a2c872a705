package mem

import (
	"math/bits"
	"sync"
)

// LineID is a compact dense identifier for one distinct cache line touched
// by a run. IDs are assigned lazily on first touch, in touch order, starting
// at 1; the zero LineID means "not interned / unknown" so a zero-valued
// message or cache entry is always safe to fall back on. In a serial run the
// touch order — and therefore the Line→LineID assignment — is identical
// across runs of the same trajectory, which is what lets LineID-indexed
// tables replace map[Line] lookups without perturbing goldens. A sharded run
// interleaves shards' first touches nondeterministically, so LineID values
// are NOT stable there; every consumer treats a LineID as an opaque dense
// index (never an ordering key), and trace serialization renumbers IDs into
// emission order before bytes leave the process.
type LineID int32

// Interner assigns LineIDs and answers both directions of the mapping. The
// forward index is an open-addressed hash table keyed by the line number
// (Fibonacci hashing, linear probing, load at most ½), consulted only when
// a line enters the system (first touch of a miss path) while every
// per-event hot lookup goes through a LineID-indexed slice instead. The
// table doubles with the lines actually interned and is rebuilt from the
// touch-ordered lines slice when it does, so nothing ever iterates it and
// IDs never move.
//
// SetShared(true) arms the interner for concurrent use by shard goroutines:
// the forward index is mutex-guarded, while LineAt stays lock-free — the
// backing array is pre-sized to full capacity so its header never moves, and
// a LineID can only reach another shard via a cross-window message, whose
// window barrier provides the element-level happens-before.
type Interner struct {
	table []internSlot // forward index; len is zero or a power of two
	shift uint         // 64 - log2(len(table)): the hash keeps the top bits
	lines []Line       // lines[:n] live, in touch order; len(lines) is capacity
	n     int          // count of interned lines
	mu    *sync.Mutex  // non-nil when shared across shard goroutines
}

// internSlot is one forward-index entry; id 0 marks it empty (line 0 is a
// valid line, so the key alone cannot).
type internSlot struct {
	line Line
	id   LineID
}

// NewInterner returns an empty interner. The zero Interner is empty and
// ready to use too.
func NewInterner() *Interner { return new(Interner) }

// SetShared arms (or, with false, disarms) the interner for concurrent use.
// While shared, capacity growth is forbidden: the caller must Grow to the
// workload's full footprint first (FootprintHinter gives the bound).
func (it *Interner) SetShared(shared bool) {
	if shared {
		if it.mu == nil {
			it.mu = new(sync.Mutex)
		}
	} else {
		it.mu = nil
	}
}

// home is l's preferred table index: the Fibonacci hash of its line
// number, keeping the top log2(len(table)) bits.
func (it *Interner) home(l Line) uint64 {
	return (uint64(l) >> lineOffsetBit) * 0x9E3779B97F4A7C15 >> it.shift
}

// slot returns the table index holding l, or the empty index where l would
// go. The table is never full (load ≤ ½), so the probe terminates.
//
//puno:hot
func (it *Interner) slot(l Line) uint64 {
	mask := uint64(len(it.table) - 1)
	i := it.home(l)
	for {
		s := &it.table[i]
		if s.id == 0 || s.line == l {
			return i
		}
		i = (i + 1) & mask
	}
}

// Intern returns l's LineID, assigning the next dense ID on first touch.
func (it *Interner) Intern(l Line) LineID {
	if it.mu != nil {
		it.mu.Lock()
		defer it.mu.Unlock()
	}
	if 2*(it.n+1) > len(it.table) {
		it.growTable() // keep the load at most ½ after this insert
	}
	i := it.slot(l)
	if id := it.table[i].id; id != 0 {
		return id
	}
	if it.n == len(it.lines) {
		if it.mu != nil {
			// The backing array cannot move while LineAt reads it
			// lock-free from other shards; the pre-size via Grow
			// (workload footprint hint) must therefore be an upper bound.
			panic("mem: shared interner overflow — footprint hint undersized")
		}
		grown := 2 * len(it.lines)
		if grown < 64 {
			grown = 64
		}
		nl := make([]Line, grown)
		copy(nl, it.lines)
		it.lines = nl
	}
	it.lines[it.n] = l
	it.n++
	id := LineID(it.n)
	it.table[i] = internSlot{line: l, id: id}
	return id
}

// Lookup returns l's LineID, or 0 when l has never been interned.
//
//puno:hot
func (it *Interner) Lookup(l Line) LineID {
	if it.mu != nil {
		it.mu.Lock()
		id := it.lookup(l)
		it.mu.Unlock()
		return id
	}
	return it.lookup(l)
}

// lookup is Lookup without the lock.
func (it *Interner) lookup(l Line) LineID {
	if it.n == 0 {
		return 0 // the table may not exist yet
	}
	return it.table[it.slot(l)].id
}

// growTable doubles the forward index (64 slots at first) and reinserts
// lines[:n] in touch order.
func (it *Interner) growTable() {
	size := max(64, 2*len(it.table))
	it.table = make([]internSlot, size)
	it.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, l := range it.lines[:it.n] {
		it.table[it.slot(l)] = internSlot{line: l, id: LineID(i + 1)}
	}
}

// LineAt is the O(1) reverse lookup. id must be a live ID (1..Len). It is
// deliberately lock-free even in shared mode; see the type comment.
//
//puno:hot
func (it *Interner) LineAt(id LineID) Line { return it.lines[id-1] }

// Len returns the number of interned lines (the largest live ID).
func (it *Interner) Len() int {
	if it.mu != nil {
		it.mu.Lock()
		n := it.n
		it.mu.Unlock()
		return n
	}
	return it.n
}

// Reset forgets every assignment, retaining capacity so a reused interner
// (and the dense tables sized off it) repopulates without reallocating.
// Not safe concurrently with shard execution.
func (it *Interner) Reset() {
	clear(it.table)
	it.n = 0
}

// Grow pre-sizes the lines slice for n distinct lines (the workload
// footprint hint applied at Machine construction/Reset), so a shared
// interner's LineAt never sees it move. The forward index is not pre-sized:
// the hint is a loose upper bound, and the index doubles with the lines
// actually interned. Not safe concurrently with shard execution.
func (it *Interner) Grow(n int) {
	if len(it.lines) < n {
		nl := make([]Line, n)
		copy(nl, it.lines)
		it.lines = nl
	}
}
