package htm

import "repro/internal/mem"

// lineSet is an exact set of cache lines built for the transaction hot
// path: membership tests and inserts without hashing or per-transaction
// heap allocation. It pairs an insertion-ordered slice (deterministic
// iteration, O(1) size) with a membership bitmap indexed by the machine's
// dense LineID, so Add/Contains are a shift, a mask, and one word load —
// the software analogue of the fixed read/write-set structures bounded HTM
// designs use in hardware. Reset clears only the member bits (cost
// proportional to the set size, not the bitmap), keeping every backing
// array for reuse between attempts.
type lineSet struct {
	lines []mem.Line   // insertion order; iterate this
	ids   []mem.LineID // parallel to lines: each member's interned ID
	bits  []uint64     // membership bitmap, bit id set when id is a member
}

// AddID inserts l (whose interned ID is id, which must be nonzero) and
// reports whether it was newly added.
//
//puno:hot
func (s *lineSet) AddID(l mem.Line, id mem.LineID) bool {
	w, b := int(uint32(id)>>6), uint64(1)<<(uint32(id)&63)
	if w >= len(s.bits) {
		s.bits = mem.Extend(s.bits, w+1)
	}
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.lines = append(s.lines, l)
	s.ids = append(s.ids, id)
	return true
}

// ContainsID reports membership of the line with interned ID id. The zero
// (unknown) ID is never a member: IDs start at 1, and the only line whose
// low bits alias bit 0 of a word is id 64, which lands in word 1.
//
//puno:hot
func (s *lineSet) ContainsID(id mem.LineID) bool {
	w := int(uint32(id) >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(uint32(id)&63)) != 0
}

// Len returns the number of members.
func (s *lineSet) Len() int { return len(s.lines) }

// Reset empties the set, keeping all backing arrays for reuse. Only the
// members' bits are cleared, so the cost tracks the set size.
func (s *lineSet) Reset() {
	for _, id := range s.ids {
		s.bits[uint32(id)>>6] &^= 1 << (uint32(id) & 63)
	}
	s.lines = s.lines[:0]
	s.ids = s.ids[:0]
}
