package machine

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// incrCounter wraps a Workload and counts, per word, the OpIncr ops of the
// instances its programs handed out and the machine committed. It needs no
// hook in the machine: a node calls Program.Next once when its thread
// starts and then once after each commit, so the instance a program handed
// out last has committed by the time the program is asked again. Each
// program therefore tallies its previous instance first, while those Ops
// are still valid, and only then asks the wrapped program for the next one
// (which may reuse the buffer).
//
// The count is taken outside the system under test, so it also catches an
// instance the machine drops instead of retrying: that instance is counted
// once its program moves on, and its increments never reach memory.
//
// One counter serves one run on the serial engine: its programs share the
// map unguarded, and a Reset onto the same counter would add to the count.
type incrCounter struct {
	Workload
	counts map[mem.Addr]uint64
}

func countIncrs(wl Workload) *incrCounter {
	return &incrCounter{Workload: wl, counts: make(map[mem.Addr]uint64)}
}

// Program implements Workload.
func (c *incrCounter) Program(node int, rng *sim.RNG) Program {
	inner := c.Workload.Program(node, rng)
	var prev []Op
	return ProgramFunc(func(r *sim.RNG) (TxInstance, bool) {
		for _, op := range prev {
			if op.Kind == OpIncr {
				c.counts[op.Addr]++
			}
		}
		tx, ok := inner.Next(r)
		prev = tx.Ops
		return tx, ok
	})
}

// check drains m's caches and fails t unless every word the counter saw
// incremented holds exactly its number of committed increments. It returns
// the total number of committed increments.
func (c *incrCounter) check(t testing.TB, m *Machine) uint64 {
	t.Helper()
	m.DrainCaches()
	var total uint64
	for addr, n := range c.counts {
		if got := m.Backing().LoadWord(addr); got != n {
			t.Errorf("%#x = %d, want %d committed increments (serializability violated)", uint64(addr), got, n)
		}
		total += n
	}
	return total
}
