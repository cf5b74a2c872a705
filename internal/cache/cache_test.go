package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
)

func small() *Cache {
	// 4 sets x 2 ways.
	return New(Config{SizeBytes: 4 * 2 * mem.LineBytes, Ways: 2})
}

func line(i int) mem.Line { return mem.Line(uint64(i) * mem.LineBytes) }

func TestNewGeometry(t *testing.T) {
	c := New(Config{SizeBytes: 32 * 1024, Ways: 4})
	if c.Sets() != 128 {
		t.Fatalf("32KB/4-way sets = %d, want 128", c.Sets())
	}
	if c.Ways() != 4 {
		t.Fatalf("ways = %d, want 4", c.Ways())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 0, Ways: 4},
		{SizeBytes: 1024, Ways: 0},
		{SizeBytes: 3 * mem.LineBytes, Ways: 1}, // 3 sets: not a power of two
		{SizeBytes: 48 << 10, Ways: 4},          // 192 sets: the mask index would be wrong
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestSetIndexMatchesModulo pins the shift-and-mask set index to the
// definition it replaced, (line number) mod sets, for every geometry New
// accepts across the shipped range — including lines far above the array
// and lines differing only in bits above the index. (New rejects any other
// set count, so the mask needs no modulo fallback; the 192-set case above
// pins that.)
func TestSetIndexMatchesModulo(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: mem.LineBytes, Ways: 1}, // 1 set: mask 0
		{SizeBytes: 4 * mem.LineBytes, Ways: 2},
		{SizeBytes: 32 << 10, Ways: 4}, // the shipped L1: 128 sets
		{SizeBytes: 1 << 20, Ways: 8},  // 2048 sets
	} {
		c := New(cfg)
		sets := uint64(c.Sets())
		for _, base := range []uint64{0, 1 << 20, 0x4000_0000, 1<<63 - 1<<20} {
			for i := uint64(0); i < 3*sets+5; i++ {
				l := mem.Line((base/mem.LineBytes + i) * mem.LineBytes)
				if got, want := c.setIndex(l), int((uint64(l)/mem.LineBytes)%sets); got != want {
					t.Fatalf("%+v: setIndex(%v) = %d, want %d", cfg, l, got, want)
				}
			}
		}
	}
}

// TestEntrySize pins the entry layout: every fill writes one Entry and the
// slab holds one per resident line, so a field added out of group (a bool
// between words) shows up here first.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 88 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want 88 (see the layout note on Entry)", got)
	}
}

// TestHeldEntryRule pins what a caller holding an entry pointer may rely
// on (the machine keeps one across events in node.pendEntry): the entry
// keeps its address while other sets fill and the slab grows, reads zeroed
// once its line is invalidated, and is handed out again only by a later
// InsertID.
func TestHeldEntryRule(t *testing.T) {
	c := New(Config{SizeBytes: 32 << 10, Ways: 4})
	var d mem.LineData
	d[3] = 7
	c.InsertID(line(1), 9, Modified, d)
	e := c.Lookup(line(1))
	want := *e
	for i := 2; i < 3*ChunkEntries; i++ { // other sets: line i is in set i
		c.Insert(line(i), Shared, mem.LineData{})
	}
	if c.EntryCap() < 3*ChunkEntries {
		t.Fatalf("slab holds %d entries, want the fills to have grown it to %d", c.EntryCap(), 3*ChunkEntries)
	}
	if got := c.Lookup(line(1)); got != e || *got != want {
		t.Fatalf("after fills elsewhere Lookup = %p %+v, want %p %+v", got, got, e, want)
	}
	c.Invalidate(line(1))
	if e.State != Invalid || e.Line != 0 || *e != (Entry{}) {
		t.Fatalf("an invalidated entry reads %+v, want zeroed", *e)
	}
	c.Access(line(2))
	c.Lookup(line(3))
	c.ForEach(func(*Entry) {})
	if *e != (Entry{}) {
		t.Fatalf("an invalidated entry reads %+v after lookups, want zeroed", *e)
	}
	got, _, _ := c.Insert(line(100), Shared, d) // set 100, not line 1's set
	if got != e || e.Line != line(100) {
		t.Fatalf("the next fill took entry %p (line %v), want the freed %p", got, got.Line, e)
	}
}

// TestResetToOtherGeometry: Reset with a different shape rebuilds the
// array as New would, and the old lines are gone.
func TestResetToOtherGeometry(t *testing.T) {
	c := small()
	c.Insert(line(1), Shared, mem.LineData{})
	c.Reset(Config{SizeBytes: 32 << 10, Ways: 4})
	if c.Sets() != 128 || c.Ways() != 4 || c.CountValid() != 0 || c.Lookup(line(1)) != nil {
		t.Fatalf("after Reset to 32KB/4-way: %d sets, %d ways, %d valid", c.Sets(), c.Ways(), c.CountValid())
	}
	if e, _, _ := c.Insert(line(1), Shared, mem.LineData{}); e == nil || c.Lookup(line(1)) != e {
		t.Fatal("insert after a reshaping Reset failed")
	}
}

func TestInsertLookup(t *testing.T) {
	c := small()
	var d mem.LineData
	d[0] = 42
	e, _, ev := c.Insert(line(1), Shared, d)
	if e == nil || ev {
		t.Fatal("insert into empty cache failed or evicted")
	}
	got := c.Lookup(line(1))
	if got == nil || got.State != Shared || got.Data[0] != 42 {
		t.Fatalf("Lookup = %+v", got)
	}
}

// TestAccessCountsHitsMisses counts hits and misses from what Access
// returns: the resident line's entry on a hit, nil on a miss.
func TestAccessCountsHitsMisses(t *testing.T) {
	c := small()
	c.Insert(line(1), Shared, mem.LineData{})
	var hits, misses int
	for _, l := range []mem.Line{line(1), line(2), line(1)} {
		switch e := c.Access(l); {
		case e == nil:
			misses++
		case e.Line != l:
			t.Fatalf("Access(%v) returned the entry of %v", l, e.Line)
		default:
			hits++
		}
	}
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Lines 0, 4, 8 map to set 0 in a 4-set cache.
	c.Insert(line(0), Shared, mem.LineData{})
	c.Insert(line(4), Shared, mem.LineData{})
	c.Access(line(0)) // make line 4 the LRU
	_, evicted, was := c.Insert(line(8), Shared, mem.LineData{})
	if !was || evicted.Line != line(4) {
		t.Fatalf("evicted %v (was=%v), want line 4", evicted.Line, was)
	}
	if c.Lookup(line(0)) == nil || c.Lookup(line(8)) == nil {
		t.Fatal("survivors missing after eviction")
	}
	if c.Lookup(line(4)) != nil {
		t.Fatal("victim still resident")
	}
}

func TestPinnedLinesNotEvicted(t *testing.T) {
	c := small()
	e0, _, _ := c.Insert(line(0), Modified, mem.LineData{})
	e4, _, _ := c.Insert(line(4), Modified, mem.LineData{})
	e0.Pinned = true
	e4.Pinned = true
	inst, _, _ := c.Insert(line(8), Shared, mem.LineData{})
	if inst != nil {
		t.Fatal("insert succeeded into fully pinned set")
	}
	e4.Pinned = false
	inst, evicted, was := c.Insert(line(8), Shared, mem.LineData{})
	if inst == nil || !was || evicted.Line != line(4) {
		t.Fatalf("expected eviction of unpinned line 4, got %v was=%v", evicted.Line, was)
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := small()
	c.Insert(line(1), Shared, mem.LineData{})
	defer func() {
		if recover() == nil {
			t.Error("double insert did not panic")
		}
	}()
	c.Insert(line(1), Modified, mem.LineData{})
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(line(3), Modified, mem.LineData{})
	c.Invalidate(line(3))
	if c.Lookup(line(3)) != nil {
		t.Fatal("line resident after Invalidate")
	}
	c.Invalidate(line(99)) // absent: must be a no-op
}

func TestForEachAndCountValid(t *testing.T) {
	c := small()
	for i := 0; i < 5; i++ {
		c.Insert(line(i), Shared, mem.LineData{})
	}
	if c.CountValid() != 5 {
		t.Fatalf("CountValid = %d, want 5", c.CountValid())
	}
	n := 0
	c.ForEach(func(*Entry) { n++ })
	if n != 5 {
		t.Fatalf("ForEach visited %d, want 5", n)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("State strings wrong")
	}
}

// Property: after any sequence of inserts, residency never exceeds capacity,
// a line is never resident twice, and every resident line maps to the set it
// occupies.
func TestInsertInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		c := small()
		for _, r := range raw {
			l := line(int(r) % 32)
			if c.Lookup(l) == nil {
				c.Insert(l, Shared, mem.LineData{})
			}
		}
		if c.CountValid() > c.Sets()*c.Ways() {
			return false
		}
		seen := map[mem.Line]bool{}
		ok := true
		c.ForEach(func(e *Entry) {
			if seen[e.Line] {
				ok = false
			}
			seen[e.Line] = true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: most-recently-used line in a set survives the next eviction in
// that set.
func TestMRUSurvives(t *testing.T) {
	c := small()
	c.Insert(line(0), Shared, mem.LineData{})
	c.Insert(line(4), Shared, mem.LineData{})
	for i := 2; i < 8; i++ {
		l := line(i * 4) // all map to set 0
		// Touch the most recent resident, then insert a new line.
		prev := line((i - 1) * 4)
		c.Access(prev)
		c.Insert(l, Shared, mem.LineData{})
		if c.Lookup(prev) == nil {
			t.Fatalf("MRU line %v was evicted", prev)
		}
	}
}
