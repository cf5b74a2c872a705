package mem

import "sync"

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
// forward index is the one blessed map in this package: it is consulted only
// when a line enters the system (first touch of a miss path) while every
// per-event hot lookup goes through a LineID-indexed slice instead.
//
// SetShared(true) arms the interner for concurrent use by shard goroutines:
// the forward map is mutex-guarded, while LineAt stays lock-free — the
// backing array is pre-sized to full capacity so its header never moves, and
// a LineID can only reach another shard via a cross-window message, whose
// window barrier provides the element-level happens-before.
type Interner struct {
	idx   map[Line]LineID
	lines []Line      // lines[:n] live, in touch order; len(lines) is capacity
	n     int         // count of interned lines
	sized int         // capacity hint already applied via Grow
	mu    *sync.Mutex // non-nil when shared across shard goroutines
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{idx: make(map[Line]LineID)}
}

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

// Intern returns l's LineID, assigning the next dense ID on first touch.
func (it *Interner) Intern(l Line) LineID {
	if it.mu != nil {
		it.mu.Lock()
		defer it.mu.Unlock()
	}
	if id := it.idx[l]; id != 0 {
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
	it.idx[l] = id
	return id
}

// Lookup returns l's LineID, or 0 when l has never been interned.
//
//puno:hot
func (it *Interner) Lookup(l Line) LineID {
	if it.mu != nil {
		it.mu.Lock()
		id := it.idx[l]
		it.mu.Unlock()
		return id
	}
	return it.idx[l]
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
	clear(it.idx)
	it.n = 0
}

// Grow pre-sizes the interner for n distinct lines (the workload footprint
// hint applied at Machine construction/Reset). Growing rebuilds the forward
// index at the larger capacity; rebuilding inserts into a fresh map, which
// is order-independent, and never reassigns IDs. Not safe concurrently with
// shard execution.
func (it *Interner) Grow(n int) {
	if n <= it.sized {
		return
	}
	it.sized = n
	if len(it.lines) < n {
		nl := make([]Line, n)
		copy(nl, it.lines)
		it.lines = nl
	}
	// This range is punovet's one exempt map iteration (a maprange row in
	// internal/lint's exemptions table): inserting existing pairs into a
	// fresh map is order-independent and IDs are not reassigned.
	m := make(map[Line]LineID, n)
	for l, id := range it.idx {
		m[l] = id
	}
	it.idx = m
}
