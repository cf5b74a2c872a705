package machine

import "repro/internal/mem"

// lineOpSet is a tiny line -> op-index association reused across
// transaction attempts (promotedLoads; firstLoad is the dense
// firstLoadTable below). Transactional footprints are a handful of lines,
// so a linear scan over a flat pair of slices beats a map and — with reset
// instead of re-make — allocates nothing in steady state.
type lineOpSet struct {
	lines []mem.Line
	ops   []int
}

func (s *lineOpSet) reset() {
	s.lines = s.lines[:0]
	s.ops = s.ops[:0]
}

// put sets the association, overwriting an existing entry for l.
func (s *lineOpSet) put(l mem.Line, op int) {
	for i, x := range s.lines {
		if x == l {
			s.ops[i] = op
			return
		}
	}
	s.lines = append(s.lines, l)
	s.ops = append(s.ops, op)
}

// firstLoadTable associates an interned line with the op index of the
// first transactional load of that line this attempt, indexed densely by
// LineID (it trains the RMW predictor when a store to the line follows).
// Values store op index + 1 so the zero value means "absent"; reset clears
// only the touched entries, so the cost tracks the attempt's footprint,
// not the table capacity.
type firstLoadTable struct {
	ops     []int32 // LineID -> first-load op index + 1 (0 = absent)
	touched []mem.LineID
}

func (t *firstLoadTable) reset() {
	for _, id := range t.touched {
		t.ops[id] = 0
	}
	t.touched = t.touched[:0]
}

// record stores op as id's first-load index unless one is already set.
//
//puno:hot
func (t *firstLoadTable) record(id mem.LineID, op int) {
	if int(id) >= len(t.ops) {
		t.ops = mem.Extend(t.ops, int(id)+1)
	}
	if t.ops[id] == 0 {
		t.ops[id] = int32(op) + 1
		t.touched = append(t.touched, id)
	}
}

// get returns the recorded first-load op index for id.
//
//puno:hot
func (t *firstLoadTable) get(id mem.LineID) (int, bool) {
	if int(id) >= len(t.ops) || t.ops[id] == 0 {
		return 0, false
	}
	return int(t.ops[id]) - 1, true
}

// Wakeup-table bounds: sized like the hardware structure would be.
const (
	wakeupMaxLines   = 8
	wakeupMaxWaiters = 4
)

// wakeupTable (PUNO-Push) records the requesters this node NACKed, per
// line, so it can ping them when its transaction finishes. Lines and
// waiters are kept sorted ascending at insert, so firing walks them in
// exactly the order the previous map+sort implementation produced — the
// NoC serializes per-cycle sends, so that order is part of the
// deterministic trajectory. Overflow silently drops (the waiter's timed
// backoff remains the fallback).
type wakeupTable struct {
	n       int
	lines   [wakeupMaxLines]mem.Line
	nw      [wakeupMaxLines]int
	waiters [wakeupMaxLines][wakeupMaxWaiters]int
}

func (w *wakeupTable) subscribe(l mem.Line, requester int) {
	i := 0
	for i < w.n && w.lines[i] < l {
		i++
	}
	if i == w.n || w.lines[i] != l {
		if w.n >= wakeupMaxLines {
			return
		}
		copy(w.lines[i+1:w.n+1], w.lines[i:w.n])
		copy(w.nw[i+1:w.n+1], w.nw[i:w.n])
		copy(w.waiters[i+1:w.n+1], w.waiters[i:w.n])
		w.lines[i] = l
		w.nw[i] = 0
		w.n++
	}
	k := w.nw[i]
	if k >= wakeupMaxWaiters {
		return
	}
	j := 0
	for j < k && w.waiters[i][j] < requester {
		j++
	}
	if j < k && w.waiters[i][j] == requester {
		return // already subscribed
	}
	copy(w.waiters[i][j+1:k+1], w.waiters[i][j:k])
	w.waiters[i][j] = requester
	w.nw[i] = k + 1
}

func (w *wakeupTable) empty() bool { return w.n == 0 }

func (w *wakeupTable) clear() { w.n = 0 }

// wbTable holds Modified victims between PUTX and WBAck (the retained copy
// services forwards that raced with the writeback). At any instant a node
// has at most a handful of writebacks in flight, so flat slices with a
// linear scan beat a map; entries are kept sorted by line at insert, so
// walking the table (DrainCaches, state dumps) visits lines in sorted
// order.
type wbTable struct {
	lines []mem.Line
	data  []mem.LineData
}

func (t *wbTable) reset() {
	t.lines = t.lines[:0]
	t.data = t.data[:0]
}

// has reports whether a writeback of l is in flight.
//
//puno:hot
func (t *wbTable) has(l mem.Line) bool {
	for _, x := range t.lines {
		if x == l {
			return true
		}
	}
	return false
}

// get returns the retained copy of l.
//
//puno:hot
func (t *wbTable) get(l mem.Line) (mem.LineData, bool) {
	for i, x := range t.lines {
		if x == l {
			return t.data[i], true
		}
	}
	return mem.LineData{}, false
}

// put inserts (or overwrites) the retained copy of l, keeping the table
// sorted by line.
func (t *wbTable) put(l mem.Line, d mem.LineData) {
	i := 0
	for i < len(t.lines) && t.lines[i] < l {
		i++
	}
	if i < len(t.lines) && t.lines[i] == l {
		t.data[i] = d
		return
	}
	t.lines = append(t.lines, 0)
	t.data = append(t.data, mem.LineData{})
	copy(t.lines[i+1:], t.lines[i:])
	copy(t.data[i+1:], t.data[i:])
	t.lines[i], t.data[i] = l, d
}

// del removes l's entry if present.
//
//puno:hot
func (t *wbTable) del(l mem.Line) {
	for i, x := range t.lines {
		if x == l {
			t.lines = append(t.lines[:i], t.lines[i+1:]...)
			t.data = append(t.data[:i], t.data[i+1:]...)
			return
		}
	}
}

// size returns the number of writebacks in flight.
func (t *wbTable) size() int { return len(t.lines) }
