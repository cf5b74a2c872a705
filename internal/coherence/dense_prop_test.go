package coherence

import (
	"fmt"
	"testing"

	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestDenseEntryTableMatchesMapModel drives the directory's dense
// LineID-indexed entry store — entry creation, state mutation, idle
// recycling, and full Resets — against a plain map[Line]*model reference
// under seeded random streams, and requires the two to agree on which
// entries are live and what state they hold. This is the contract the
// handlers rely on now that no Go map sits on the request path.
func TestDenseEntryTableMatchesMapModel(t *testing.T) {
	type modelEntry struct {
		state   DirState
		sharers nodeSet
		owner   int
	}
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 131)
		env := newMockEnv()
		d := NewDirectory(0, 16, env, nil)
		it := env.Interner()
		model := make(map[mem.Line]*modelEntry)

		line := func() mem.Line { return mem.Line(uint64(rng.Intn(150)) * mem.LineBytes) }

		for step := 0; step < 6000; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // touch: create-or-get and mutate
				l := line()
				e := d.entry(it.Intern(l))
				m, ok := model[l]
				if !ok {
					m = &modelEntry{state: DirInvalid, owner: -1}
					model[l] = m
				}
				if e.state != m.state || e.sharers != m.sharers || e.owner != m.owner {
					t.Fatalf("seed %d step %d: entry(%v) = {%v %v %d}, model {%v %v %d}",
						seed, step, l, e.state, e.sharers, e.owner, m.state, m.sharers, m.owner)
				}
				// Random mutation, mirrored into the model. Sharer bits span
				// the set's full width so the multi-word nodeSet is exercised
				// beyond word 0.
				switch rng.Intn(3) {
				case 0:
					e.state, m.state = DirShared, DirShared
					n := rng.Intn(MaxNodes)
					e.sharers.add(n)
					m.sharers.add(n)
				case 1:
					o := rng.Intn(16)
					e.state, m.state = DirModified, DirModified
					e.owner, m.owner = o, o
					e.sharers, m.sharers = nodeSet{}, nodeSet{}
				case 2: // back to idle-default (recyclable)
					e.state, m.state = DirInvalid, DirInvalid
					e.sharers, m.sharers = nodeSet{}, nodeSet{}
					e.owner, m.owner = -1, -1
				}
			case 4, 5, 6: // recycle attempt
				l := line()
				if e := d.lookup(it.Lookup(l)); e != nil {
					d.recycleIfIdle(e)
					m := model[l]
					if m.state == DirInvalid {
						delete(model, l) // idle entries are dropped
					}
				}
			case 7, 8: // liveness agreement
				l := line()
				e := d.lookup(it.Lookup(l))
				_, ok := model[l]
				if (e != nil) != ok {
					t.Fatalf("seed %d step %d: lookup(%v) live=%v, model live=%v", seed, step, l, e != nil, ok)
				}
				if e != nil {
					m := model[l]
					if e.state != m.state || e.sharers != m.sharers || e.owner != m.owner {
						t.Fatalf("seed %d step %d: lookup(%v) = {%v %v %d}, model {%v %v %d}",
							seed, step, l, e.state, e.sharers, e.owner, m.state, m.sharers, m.owner)
					}
				}
			case 9:
				if rng.Intn(200) == 0 { // rare: full reset, capacity retained
					d.Reset(nil)
					clear(model)
				}
			}
			if len(d.slab)-len(d.free) != len(model) {
				t.Fatalf("seed %d step %d: %d live slots (slab %d - free %d), model %d",
					seed, step, len(d.slab)-len(d.free), len(d.slab), len(d.free), len(model))
			}
		}
	}
}

// TestDenseEntryTableGrowth forces the slot index through repeated
// within-capacity re-extension and fresh growth: interleaves Resets with
// ascending-ID touches and checks stale slot mappings never resurface.
func TestDenseEntryTableGrowth(t *testing.T) {
	env := newMockEnv()
	d := NewDirectory(0, 16, env, nil)
	it := env.Interner()
	for round := 0; round < 6; round++ {
		n := 50 * (round + 1) // extends past the previous round's len
		for i := 0; i < n; i++ {
			l := mem.Line(uint64(i) * mem.LineBytes)
			id := it.Intern(l)
			e := d.entry(id)
			if e.lid != id {
				t.Fatalf("round %d: entry for %v holds line %v", round, l, it.LineAt(e.lid))
			}
			if e.state != DirInvalid || e.busy || len(e.pending) != 0 {
				t.Fatalf("round %d: fresh entry for %v not in default state: %+v", round, l, *e)
			}
			e.state = DirShared // dirty it so recycling can't hide staleness
		}
		if got := len(d.slab); got != n {
			t.Fatalf("round %d: slab has %d entries, want %d", round, got, n)
		}
		d.Reset(nil)
		it.Reset()
		if d.lookup(1) != nil {
			t.Fatalf("round %d: entry survived Reset", round)
		}
	}
}

// dirView is what State reports for one line.
type dirView struct {
	state   DirState
	sharers string
	owner   int
}

func viewOf(d *Directory, l mem.Line) dirView {
	st, sh, o := d.State(l)
	return dirView{st, fmt.Sprint(sh), o}
}

// TestBusyServiceKeepsStableState drives random GETS, GETX, UNBLOCK
// (success or failure), WBData and PUTX traffic from nodes that each keep at
// most one request outstanding, and checks what the busy service relies
// on: while an entry is busy State(l) returns exactly what it returned when
// the service began, a failed UNBLOCK with nothing parked leaves State(l)
// unchanged, and no entry ever parks more than nodes-1 reads.
func TestBusyServiceKeepsStableState(t *testing.T) {
	const (
		nodes = 6
		lines = 3
		steps = 20000
	)
	const (
		free = iota
		waiting
		serving
	)
	type pnode struct {
		phase   int
		line    mem.Line
		getx    bool
		success bool // the planned outcome of the service
		owner   int  // for a read served by the owner: who writes back
		wbSent  bool
		ubSent  bool
	}
	maxPending := 0
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 977)
		env := newMockEnv()
		d := NewDirectory(0, nodes, env, nil)
		var ns [nodes]pnode
		lineAt := func(i int) mem.Line { return mem.Line(uint64(i) * mem.LineBytes) }
		line := func() mem.Line { return lineAt(rng.Intn(lines)) }
		var began [lines]dirView // State when the current service began

		busyBy := func() map[mem.Line]BusyInfo {
			out := map[mem.Line]BusyInfo{}
			for _, b := range d.BusyEntries() {
				out[b.Line] = b
				if b.Pending > nodes-1 {
					t.Fatalf("seed %d: %v parks %d requests, more than nodes-1 = %d", seed, b.Line, b.Pending, nodes-1)
				}
				maxPending = max(maxPending, b.Pending)
			}
			return out
		}
		handle := func(step int, m *Msg) {
			var before [lines]dirView
			for i := range before {
				before[i] = viewOf(d, lineAt(i))
			}
			busyBefore := busyBy()
			d.Handle(m)
			sent := env.take()
			busyAfter := busyBy()
			for i := range began {
				l := lineAt(i)
				b, busy := busyAfter[l]
				if !busy {
					continue
				}
				now := viewOf(d, l)
				prev, wasBusy := busyBefore[l]
				switch {
				case wasBusy && prev.Requester == b.Requester:
					if now != began[i] {
						t.Fatalf("seed %d step %d: busy %v changed from %+v to %+v", seed, step, l, began[i], now)
					}
					continue
				case !wasBusy && now != before[i]:
					t.Fatalf("seed %d step %d: beginning a service on %v changed %+v to %+v", seed, step, l, before[i], now)
				}
				began[i] = now
				n := &ns[b.Requester]
				*n = pnode{phase: serving, line: l, getx: n.getx, success: rng.Intn(2) == 0, owner: now.owner}
			}
			if i := int(m.Line / mem.LineBytes); m.Type == MsgUnblock && !m.Success && busyBefore[m.Line].Pending == 0 {
				if now := viewOf(d, m.Line); now != before[i] {
					t.Fatalf("seed %d step %d: failed UNBLOCK changed %v from %+v to %+v", seed, step, m.Line, before[i], now)
				}
			}
			for i := range ns {
				n := &ns[i]
				switch n.phase {
				case serving:
					if b, ok := busyAfter[n.line]; !ok || b.Requester != i {
						n.phase = free
					}
				case waiting:
					answered := false
					for _, s := range sent {
						if s.Dst == i && (s.Type == MsgData || s.Type == MsgNackBusy) {
							answered = true
						}
					}
					switch _, busy := busyAfter[n.line]; {
					case answered:
						n.phase = free
					case !busy:
						t.Fatalf("seed %d step %d: node %d's request for %v is neither answered nor parked", seed, step, i, n.line)
					}
				}
			}
		}

		for step := 0; step < steps; step++ {
			i := rng.Intn(nodes)
			n := &ns[i]
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // a free node issues a request
				if n.phase != free {
					continue
				}
				*n = pnode{phase: waiting, line: line(), getx: rng.Intn(2) == 0}
				m := &Msg{Type: MsgGETS, Line: n.line, Src: i, Requester: i, Prio: htm.Priority(rng.Intn(100))}
				if n.getx {
					m.Type, m.IsWrite, m.NeedData = MsgGETX, true, rng.Intn(2) == 0
				}
				handle(step, m)
			case 4, 5, 6: // a served node takes its next step
				if n.phase != serving {
					continue
				}
				if !n.getx && n.success && !n.wbSent && (n.ubSent || rng.Intn(2) == 0) {
					n.wbSent = true
					handle(step, &Msg{Type: MsgWBData, Line: n.line, Src: n.owner})
				} else if !n.ubSent {
					n.ubSent = true
					handle(step, &Msg{Type: MsgUnblock, Line: n.line, Src: i, Success: n.success})
				}
			case 7: // a victim writeback, from the owner or not
				handle(step, &Msg{Type: MsgPUTX, Line: line(), Src: i, Requester: i})
			}
		}
	}
	if maxPending < 2 {
		t.Fatalf("at most %d reads ever parked: the traffic does not exercise the queue", maxPending)
	}
	t.Logf("most reads parked on one entry: %d of at most %d", maxPending, nodes-1)
}
