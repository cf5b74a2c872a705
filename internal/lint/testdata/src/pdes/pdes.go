// Package pdes is the punovet fixture for the PDES coordinator's shape:
// the windowed merge/replay commit is hot and must stay allocation-free,
// and nothing in the merge may lean on map order, the wall clock, or
// closure handlers — the coordinator's contract is bit-identity with the
// serial engine, so "order cannot matter" is never claimable here.
package pdes

import (
	"time"

	"repro/internal/sim"
)

type entry struct {
	at  uint64
	seq uint64
}

type shard struct {
	entries []entry
	head    int
	renum   []uint64
	pending map[uint64]uint64
}

var sink uint64

// commit mirrors the coordinator's k-way merge: hot via annotation, so
// building the merge order in a fresh slice per commit is a finding, and resolving provisional seqs
// through a map (instead of the dense renum table) leaks map order into
// the merge.
//
//puno:hot
func commit(parts []*shard) {
	var order []int
	for i := range parts {
		order = append(order, i) // want "append grows function-local slice order"
	}
	_ = order
	for seq := range parts[0].pending { // want "map iteration order is nondeterministic"
		sink += seq
	}
	for _, sh := range parts {
		for sh.head < len(sh.entries) {
			sink += sh.entries[sh.head].at
			sh.head++
		}
	}
}

// stamp reads the wall clock to pick a window edge — forbidden; window
// boundaries come from simulated time and the mesh lookahead only.
func stamp() uint64 {
	return uint64(time.Now().UnixNano()) // want "reads the wall clock"
}

// hf adapts a plain function to sim.Handler, the hole closures sneak
// through.
type hf func(arg any, word uint64)

func (f hf) OnEvent(arg any, word uint64) { f(arg, word) }

// schedule shows the forbidden shape for cross-shard injection: a closure
// handler would capture shard-local state the replay cannot re-key.
func schedule(eng *sim.Engine) {
	eng.AtEvent(5, hf(func(arg any, word uint64) { sink += word }), nil, 0) // want "function literal"
}

// resolveOK is the blessed shape: dense window-local renum table indexed by
// provisional seq, no maps, no allocations.
//
//puno:hot
func resolveOK(sh *shard, winBase uint64) {
	for i := range sh.entries {
		e := &sh.entries[i]
		if e.seq >= winBase {
			e.seq = sh.renum[e.seq-winBase]
		}
	}
}
