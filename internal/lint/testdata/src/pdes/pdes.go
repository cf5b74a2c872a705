// Package pdes is the punovet fixture for the PDES coordinator's shape:
// the windowed merge/replay commit is hot and must stay allocation-free,
// and nothing in the merge may lean on map order or the wall clock — the
// coordinator's contract is bit-identity with the serial engine.
package pdes

import "time"

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
