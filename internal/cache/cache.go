// Package cache implements the set-associative cache arrays used for the
// private L1s and the shared banked L2. The arrays track MESI stable
// states, per-line data, LRU replacement, and transactional pinning:
// lines in a running transaction's read or write set must not be chosen as
// victims (the HTM aborts on overflow instead, which the machine layer
// counts separately).
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// State is a MESI stable state for a cached line.
type State uint8

// MESI stable states. Transient (in-flight) request state is tracked by the
// coherence controllers, not in the array.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Entry is one cache line's residency in the array.
type Entry struct {
	Line   mem.Line
	LID    mem.LineID // Line's interned dense ID (0 when unknown to the filler)
	State  State
	Data   mem.LineData
	Pinned bool // member of a live transaction's read/write set
	lru    uint64
	valid  bool
}

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
}

// Sets returns the number of sets this configuration yields.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineBytes * c.Ways) }

// Cache is a set-associative array. The zero value is unusable; construct
// with New.
type Cache struct {
	sets    int
	setMask uint64 // sets-1: New guarantees sets is a power of two
	ways    int
	entries []Entry // sets x ways
	tick    uint64
}

// New builds a cache from cfg. Size must be a positive multiple of
// ways*LineBytes and the set count must be a power of two.
func New(cfg Config) *Cache {
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	sets := cfg.Sets()
	if sets <= 0 || sets*(cfg.Ways*mem.LineBytes) != cfg.SizeBytes {
		panic(fmt.Sprintf("cache: size %d not divisible into %d-way sets", cfg.SizeBytes, cfg.Ways))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	return &Cache{
		sets:    sets,
		setMask: uint64(sets - 1),
		ways:    cfg.Ways,
		entries: make([]Entry, sets*cfg.Ways),
	}
}

// Reset returns the cache to the all-invalid state New(cfg) would produce,
// reusing the entry array when the geometry is unchanged (the arena-reuse
// path of the sweep harness) and reallocating it otherwise.
func (c *Cache) Reset(cfg Config) {
	if cfg.Ways != c.ways || cfg.Sets() != c.sets {
		*c = *New(cfg) // validates cfg and sizes the array
		return
	}
	clear(c.entries)
	c.tick = 0
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// setIndex is (line number) mod sets, as a shift and a mask: every access
// indexes a set, and a 64-bit modulo is the dearest instruction on that path.
func (c *Cache) setIndex(l mem.Line) int {
	return int((uint64(l) / mem.LineBytes) & c.setMask)
}

func (c *Cache) setSlice(l mem.Line) []Entry {
	base := c.setIndex(l) * c.ways
	return c.entries[base : base+c.ways]
}

// Lookup returns the entry holding l, or nil. It does not touch LRU state;
// use Access for demand references.
func (c *Cache) Lookup(l mem.Line) *Entry {
	set := c.setSlice(l)
	for i := range set {
		if set[i].valid && set[i].Line == l {
			return &set[i]
		}
	}
	return nil
}

// Access performs a demand lookup: on hit it refreshes LRU and returns the
// entry; on miss it returns nil.
func (c *Cache) Access(l mem.Line) *Entry {
	e := c.Lookup(l)
	if e == nil {
		return nil
	}
	c.tick++
	e.lru = c.tick
	return e
}

// Victim returns the entry that would be evicted to make room for l: an
// invalid way if one exists, otherwise the least recently used non-pinned
// entry. It returns nil when every way is pinned (transactional overflow).
func (c *Cache) Victim(l mem.Line) *Entry {
	set := c.setSlice(l)
	var victim *Entry
	for i := range set {
		e := &set[i]
		if !e.valid {
			return e
		}
		if e.Pinned {
			continue
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	return victim
}

// Insert fills a line into the array, evicting a victim if needed. It
// returns the installed entry and, when a valid line was displaced, a copy
// of the displaced entry (evicted=true). Insert returns installed=nil when
// the set is fully pinned. Inserting a line that is already present panics:
// the coherence controller must not double-fill.
func (c *Cache) Insert(l mem.Line, st State, data mem.LineData) (installed *Entry, evicted Entry, wasEvicted bool) {
	return c.InsertID(l, 0, st, data)
}

// InsertID is Insert carrying l's interned LineID, so entries filled by the
// machine's miss path retain the dense index the coherence messages already
// computed (tag compare stays on Line; LID rides along for the HTM and
// writeback tables).
func (c *Cache) InsertID(l mem.Line, id mem.LineID, st State, data mem.LineData) (installed *Entry, evicted Entry, wasEvicted bool) {
	if c.Lookup(l) != nil {
		panic(fmt.Sprintf("cache: double insert of line %v", l))
	}
	v := c.Victim(l)
	if v == nil {
		return nil, Entry{}, false
	}
	if v.valid {
		evicted, wasEvicted = *v, true
	}
	c.tick++
	*v = Entry{Line: l, LID: id, State: st, Data: data, lru: c.tick, valid: true}
	return v, evicted, wasEvicted
}

// Invalidate removes l from the array if present.
func (c *Cache) Invalidate(l mem.Line) {
	if e := c.Lookup(l); e != nil {
		*e = Entry{}
	}
}

// ForEach calls fn for every valid entry.
func (c *Cache) ForEach(fn func(*Entry)) {
	for i := range c.entries {
		if c.entries[i].valid {
			fn(&c.entries[i])
		}
	}
}

// CountValid returns the number of resident lines.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].valid {
			n++
		}
	}
	return n
}
