package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// refCache is the dense sets x ways array: every way holds its Entry in
// place and validity sits beside it. It is the model Cache is checked
// against, so its victim rule, ForEach order and held-entry reads are the
// ones a run may observe.
type refCache struct {
	sets, ways int
	entries    []Entry
	valid      []bool
	tick       uint64
}

func newRef(cfg Config) *refCache {
	n := cfg.Sets() * cfg.Ways
	return &refCache{sets: cfg.Sets(), ways: cfg.Ways, entries: make([]Entry, n), valid: make([]bool, n)}
}

func (r *refCache) reset() {
	clear(r.entries)
	clear(r.valid)
	r.tick = 0
}

func (r *refCache) base(l mem.Line) int {
	return int(uint64(l)/mem.LineBytes%uint64(r.sets)) * r.ways
}

// find returns the slot holding l, or -1.
func (r *refCache) find(l mem.Line) int {
	b := r.base(l)
	for i := b; i < b+r.ways; i++ {
		if r.valid[i] && r.entries[i].Line == l {
			return i
		}
	}
	return -1
}

func (r *refCache) access(l mem.Line) int {
	i := r.find(l)
	if i >= 0 {
		r.tick++
		r.entries[i].lru = r.tick
	}
	return i
}

// victim is the first invalid way, else the least recently used unpinned
// way (the first in way order on a tie), else -1.
func (r *refCache) victim(l mem.Line) int {
	b, v := r.base(l), -1
	for i := b; i < b+r.ways; i++ {
		if !r.valid[i] {
			return i
		}
		if !r.entries[i].Pinned && (v < 0 || r.entries[i].lru < r.entries[v].lru) {
			v = i
		}
	}
	return v
}

func (r *refCache) insert(l mem.Line, id mem.LineID, st State, data mem.LineData) (slot int, evicted Entry, was bool) {
	v := r.victim(l)
	if v < 0 {
		return -1, Entry{}, false
	}
	if r.valid[v] {
		evicted, was = r.entries[v], true
	}
	r.tick++
	r.entries[v] = Entry{Line: l, LID: id, State: st, Data: data, lru: r.tick}
	r.valid[v] = true
	return v, evicted, was
}

func (r *refCache) invalidate(l mem.Line) {
	if i := r.find(l); i >= 0 {
		r.entries[i] = Entry{}
		r.valid[i] = false
	}
}

// sameEntry compares what a holder of an entry can read, field by field.
func sameEntry(a, b *Entry) bool {
	return a.Line == b.Line && a.LID == b.LID && a.State == b.State &&
		a.Data == b.Data && a.Pinned == b.Pinned && a.lru == b.lru
}

func showEntry(e *Entry) string {
	return fmt.Sprintf("{Line:%v LID:%d State:%v Data[0]:%d Pinned:%v lru:%d}", e.Line, e.LID, e.State, e.Data[0], e.Pinned, e.lru)
}

// held is an entry pointer both sides returned for the same call, with the
// reference's slot, so the test keeps reading it after later calls.
type held struct {
	got  *Entry
	slot int
}

// refStats counts the cases a run reached, so a test can insist each one
// happened.
type refStats struct {
	hits, evictions, fullyPinned, invalidates, resets int
}

// runAgainstRef drives c and a reference with the same random calls and
// fails at the first difference either could show a caller: an entry's
// contents (through the pointer just returned or one held from earlier),
// the evicted copy and wasEvicted, a nil install, ForEach order and
// CountValid. step, if not nil, runs after every call.
func runAgainstRef(t *testing.T, cfg Config, seed int64, steps int, step func(c *Cache, r *refCache)) refStats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, r := New(cfg), newRef(cfg)
	universe := 3 * cfg.Sets() * cfg.Ways
	var hs []held
	var st refStats
	pinBias := 0.5 // drifts so some phases fill sets with pinned lines
	keep := func(got *Entry, slot int) {
		if len(hs) == 16 {
			hs = hs[1:]
		}
		hs = append(hs, held{got, slot})
	}
	check := func(k int, op string) {
		t.Helper()
		for _, h := range hs {
			if !sameEntry(h.got, &r.entries[h.slot]) {
				t.Fatalf("%+v seed %d step %d (%s): held entry reads %s, reference %s",
					cfg, seed, k, op, showEntry(h.got), showEntry(&r.entries[h.slot]))
			}
		}
		var got []Entry
		c.ForEach(func(e *Entry) { got = append(got, *e) })
		var want []Entry
		for i := range r.entries {
			if r.valid[i] {
				want = append(want, r.entries[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%+v seed %d step %d (%s): ForEach visits %d entries, reference %d", cfg, seed, k, op, len(got), len(want))
		}
		for i := range got {
			if !sameEntry(&got[i], &want[i]) {
				t.Fatalf("%+v seed %d step %d (%s): ForEach entry %d is %s, reference %s",
					cfg, seed, k, op, i, showEntry(&got[i]), showEntry(&want[i]))
			}
		}
		if c.CountValid() != len(want) {
			t.Fatalf("%+v seed %d step %d (%s): CountValid = %d, reference %d", cfg, seed, k, op, c.CountValid(), len(want))
		}
		if step != nil {
			step(c, r)
		}
	}
	lookupBoth := func(k int, op string, e *Entry, slot int) {
		t.Helper()
		switch {
		case (e == nil) != (slot < 0):
			t.Fatalf("%+v seed %d step %d: %s found=%v, reference found=%v", cfg, seed, k, op, e != nil, slot >= 0)
		case e != nil && !sameEntry(e, &r.entries[slot]):
			t.Fatalf("%+v seed %d step %d: %s returned %s, reference %s", cfg, seed, k, op, showEntry(e), showEntry(&r.entries[slot]))
		case e != nil:
			st.hits++
			keep(e, slot)
		}
	}
	for k := 0; k < steps; k++ {
		l := line(rng.Intn(universe))
		var op string
		switch p := rng.Intn(1000); {
		case p < 250:
			op = "Access"
			e := c.Access(l)
			lookupBoth(k, op, e, r.access(l))
		case p < 350:
			op = "Lookup"
			lookupBoth(k, op, c.Lookup(l), r.find(l))
		case p < 700:
			op = "InsertID"
			if r.find(l) >= 0 {
				continue // a double insert panics on both sides
			}
			// An entry whose line was invalidated may be handed out by this
			// insert: nothing may read it any more.
			live := hs[:0]
			for _, h := range hs {
				if r.valid[h.slot] {
					live = append(live, h)
				}
			}
			hs = live
			var d mem.LineData
			d[0], d[rng.Intn(mem.WordsPerLine)] = uint64(k), rng.Uint64()
			id, s := mem.LineID(rng.Intn(1000)), State(1+rng.Intn(2))
			e, ev, was := c.InsertID(l, id, s, d)
			slot, rev, rwas := r.insert(l, id, s, d)
			switch {
			case (e == nil) != (slot < 0):
				t.Fatalf("%+v seed %d step %d: InsertID(%v) installed=%v, reference %v", cfg, seed, k, l, e != nil, slot >= 0)
			case e == nil:
				st.fullyPinned++
			case !sameEntry(e, &r.entries[slot]):
				t.Fatalf("%+v seed %d step %d: InsertID(%v) installed %s, reference %s", cfg, seed, k, l, showEntry(e), showEntry(&r.entries[slot]))
			default:
				keep(e, slot)
			}
			if was != rwas || !sameEntry(&ev, &rev) {
				t.Fatalf("%+v seed %d step %d: InsertID(%v) evicted %s (%v), reference %s (%v)",
					cfg, seed, k, l, showEntry(&ev), was, showEntry(&rev), rwas)
			}
			if was {
				st.evictions++
			}
		case p < 800:
			op = "Invalidate"
			if r.find(l) >= 0 {
				st.invalidates++
			}
			c.Invalidate(l)
			r.invalidate(l)
		case p < 998:
			op = "pin"
			if rng.Intn(50) == 0 {
				pinBias = rng.Float64()
			}
			if len(hs) == 0 {
				continue
			}
			h := hs[rng.Intn(len(hs))]
			if !r.valid[h.slot] {
				continue // the machine writes only through entries it holds resident
			}
			pin := rng.Float64() < pinBias
			h.got.Pinned, r.entries[h.slot].Pinned = pin, pin
		default:
			op = "Reset"
			st.resets++
			c.Reset(cfg)
			r.reset()
			hs = hs[:0]
		}
		check(k, op)
	}
	return st
}

// refGeometries are the shapes the reference test drives: one set (every
// line collides, so fully pinned sets are common), direct-mapped, small
// two- and four-way arrays, and the shipped 32 KB 4-way L1.
var refGeometries = []Config{
	{SizeBytes: 4 * mem.LineBytes, Ways: 4},
	{SizeBytes: 2 * mem.LineBytes, Ways: 1},
	{SizeBytes: 4 * 2 * mem.LineBytes, Ways: 2},
	{SizeBytes: 16 * 4 * mem.LineBytes, Ways: 4},
	{SizeBytes: 32 << 10, Ways: 4},
}

// TestMatchesDenseReference holds Cache to the dense array it models:
// the same random Access, Lookup, InsertID, Invalidate, pin and unpin
// writes and Reset calls on both, compared after every call.
func TestMatchesDenseReference(t *testing.T) {
	var total refStats
	for _, cfg := range refGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			st := runAgainstRef(t, cfg, seed, 4000, nil)
			total.hits += st.hits
			total.evictions += st.evictions
			total.fullyPinned += st.fullyPinned
			total.invalidates += st.invalidates
			total.resets += st.resets
		}
	}
	if total.hits == 0 || total.evictions == 0 || total.fullyPinned == 0 || total.invalidates == 0 || total.resets == 0 {
		t.Fatalf("a case went unexercised: %+v", total)
	}
}

// TestSlabHoldsPeakResidency checks the slab's accounting on the reference
// runs: an entry comes out of the slab only when every entry already out is
// resident, so the entries out since the last Reset are the peak residency
// since then, the freed ones are the rest, and the slab holds the largest
// such peak rounded up to a chunk.
func TestSlabHoldsPeakResidency(t *testing.T) {
	for _, cfg := range refGeometries {
		for seed := int64(1); seed <= 4; seed++ {
			var lastOut, peak, maxPeak int
			runAgainstRef(t, cfg, seed, 4000, func(c *Cache, _ *refCache) {
				if c.EntriesOut() < lastOut { // Reset
					peak = 0
				}
				lastOut = c.EntriesOut()
				n := c.CountValid()
				peak = max(peak, n)
				maxPeak = max(maxPeak, peak)
				if c.EntriesOut() != peak || len(c.free) != peak-n {
					t.Fatalf("%+v seed %d: %d entries out, %d free, %d resident; want a peak of %d out", cfg, seed, c.EntriesOut(), len(c.free), n, peak)
				}
				if want := (maxPeak + chunkEntries - 1) / chunkEntries * chunkEntries; c.EntryCap() != want {
					t.Fatalf("%+v seed %d: slab holds %d entries, want %d for a peak of %d", cfg, seed, c.EntryCap(), want, maxPeak)
				}
			})
		}
	}
}
