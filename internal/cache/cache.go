// Package cache implements the set-associative cache arrays used for the
// private L1s and the shared banked L2. The arrays track the protocol's
// stable states (I, S, M), per-line data, LRU replacement, and
// transactional pinning: lines in a running transaction's read or write
// set must not be chosen as victims (the HTM aborts on overflow instead,
// which the machine layer counts separately).
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// State is a stable state for a cached line.
type State uint8

// Stable states. A read miss is granted Shared even with no other sharer,
// so there is no Exclusive state: the protocol in effect is MSI. Transient
// (in-flight) request state is tracked by the coherence controllers, not
// in the array.
const (
	Invalid State = iota
	Shared
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Entry is one cache line's residency in the array. Entries live in the
// cache's slab and never move: a held *Entry keeps reading its line while
// the line stays resident, reads the line filled in its place once it is
// evicted, reads zeroed once it is invalidated, and is handed out again only
// by a later InsertID on the same cache. The two words come first and the
// narrow fields last, so an Entry is 88 bytes (TestEntrySize).
type Entry struct {
	Line   mem.Line
	lru    uint64
	Data   mem.LineData
	LID    mem.LineID // Line's interned dense ID (0 when unknown to the filler)
	State  State
	Pinned bool // member of a live transaction's read/write set
}

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Ways      int
}

// Sets returns the number of sets this configuration yields.
func (c Config) Sets() int { return c.SizeBytes / (mem.LineBytes * c.Ways) }

// chunkEntries is the slab's allocation unit.
const chunkEntries = 32

// tag is one way of the tag array: the resident line and its entry, or a
// nil entry when the way is invalid. At 16 bytes a 4-way set is one 64-byte
// host cache line.
type tag struct {
	line mem.Line
	e    *Entry
}

// Cache is a set-associative array. The zero value is unusable; construct
// with New.
//
// The array is a dense tag array plus a slab of entries for the lines it
// holds, so host memory follows the resident lines rather than the modeled
// capacity. The slab grows a 32-entry chunk at a time and never moves an
// entry; Reset keeps the chunks, so a reused cache holds as many entries as
// its peak residency in any one run.
type Cache struct {
	sets    int
	setMask uint64 // sets-1: New guarantees sets is a power of two
	ways    int
	tags    []tag // sets x ways
	tick    uint64

	chunks []*[chunkEntries]Entry
	used   int      // entries handed out from the chunks since New or Reset, in order
	free   []*Entry // handed-out entries whose lines were invalidated
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
		tags:    make([]tag, sets*cfg.Ways),
	}
}

// Reset returns the cache to the all-invalid state New(cfg) would produce.
// When the geometry is unchanged (the arena-reuse path of the sweep
// harness) it clears only the tags and keeps the slab's chunks for the next
// run to hand out again; an entry held across Reset reads nothing
// meaningful. Otherwise it rebuilds the cache.
func (c *Cache) Reset(cfg Config) {
	if cfg.Ways != c.ways || cfg.Sets() != c.sets {
		*c = *New(cfg) // validates cfg and sizes the array
		return
	}
	clear(c.tags)
	c.tick, c.used, c.free = 0, 0, c.free[:0]
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

func (c *Cache) setSlice(l mem.Line) []tag {
	base := c.setIndex(l) * c.ways
	return c.tags[base : base+c.ways]
}

// Lookup returns the entry holding l, or nil. It does not touch LRU state;
// use Access for demand references.
func (c *Cache) Lookup(l mem.Line) *Entry {
	set := c.setSlice(l)
	for i := range set {
		if set[i].line == l && set[i].e != nil {
			return set[i].e
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

// victim returns the way of set to fill: the first invalid way, else the
// least recently used unpinned way (the first in way order on a tie), else
// -1 when every way is pinned (transactional overflow).
func victim(set []tag) int {
	v := -1
	for i := range set {
		e := set[i].e
		if e == nil {
			return i
		}
		if !e.Pinned && (v < 0 || e.lru < set[v].e.lru) {
			v = i
		}
	}
	return v
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
// writeback tables). The filled way takes the evicted line's entry, else
// the entry invalidated last, else the slab's next one.
func (c *Cache) InsertID(l mem.Line, id mem.LineID, st State, data mem.LineData) (installed *Entry, evicted Entry, wasEvicted bool) {
	if c.Lookup(l) != nil {
		panic(fmt.Sprintf("cache: double insert of line %v", l))
	}
	set := c.setSlice(l)
	v := victim(set)
	if v < 0 {
		return nil, Entry{}, false
	}
	e := set[v].e
	if e != nil {
		evicted, wasEvicted = *e, true
	} else {
		e = c.alloc()
	}
	c.tick++
	*e = Entry{Line: l, LID: id, State: st, Data: data, lru: c.tick}
	set[v] = tag{line: l, e: e}
	return e, evicted, wasEvicted
}

// alloc hands out an entry for an invalid way: the entry freed last, else
// the slab's next, growing the slab by a chunk when every entry is out. The
// slab and the free list keep their capacity across Reset, so a warm run
// grows neither unless it goes past an earlier run's peak.
func (c *Cache) alloc() *Entry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	if c.used == len(c.chunks)*chunkEntries {
		c.chunks = append(c.chunks, new([chunkEntries]Entry))
	}
	e := &c.chunks[c.used/chunkEntries][c.used%chunkEntries]
	c.used++
	return e
}

// Invalidate removes l from the array if present, zeroing its entry and
// returning it to the free list.
func (c *Cache) Invalidate(l mem.Line) {
	set := c.setSlice(l)
	for i := range set {
		if e := set[i].e; set[i].line == l && e != nil {
			*e = Entry{}
			c.free = append(c.free, e)
			set[i] = tag{}
			return
		}
	}
}

// ForEach calls fn for every valid entry, in set then way order.
func (c *Cache) ForEach(fn func(*Entry)) {
	for i := range c.tags {
		if e := c.tags[i].e; e != nil {
			fn(e)
		}
	}
}

// CountValid returns the number of resident lines.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.tags {
		if c.tags[i].e != nil {
			n++
		}
	}
	return n
}
