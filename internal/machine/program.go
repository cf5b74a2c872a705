// Package machine assembles the full chip multiprocessor: N nodes (in-order
// core + private L1 + shared L2 bank + directory slice) on the 2D-mesh
// interconnect, running transactional programs under a selectable
// contention-management scheme. It implements the requester/sharer (L1)
// half of the MESI+HTM protocol whose home-directory half lives in
// internal/coherence, and collects every statistic the paper's figures
// need.
package machine

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// OpKind is the kind of one transactional operation.
type OpKind uint8

// Operation kinds. OpIncr is a load followed by a store of value+1 to the
// same word — the read-modify-write idiom that trains the RMW predictor and
// that tests use to check serializability (the final memory value must
// equal the number of committed increments).
const (
	OpRead OpKind = iota
	OpWrite
	OpIncr
	OpCompute
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpIncr:
		return "incr"
	case OpCompute:
		return "compute"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one operation inside a transaction.
type Op struct {
	Kind   OpKind
	Addr   mem.Addr // Read/Write/Incr
	Value  uint64   // Write: the value stored
	Cycles sim.Time // Compute: busy cycles
}

// TxInstance is one dynamic transaction to execute: a static transaction id
// (its TX_BEGIN site), the operation list, and the non-transactional think
// time that follows a successful commit.
type TxInstance struct {
	StaticID    int
	Ops         []Op
	ThinkCycles sim.Time
}

// Program supplies the sequence of transactions one hardware thread runs.
// Next is called once when the thread starts and then once after each
// commit, never after an abort (an aborted instance is retried); returning
// ok=false ends the thread. That makes Next the commit hook: the instance a
// program handed out last has committed by the time Next runs again, which
// is how the serializability checks count committed increments from the
// workload side. Implementations must be deterministic given the supplied
// RNG.
//
// The returned instance's Ops are valid only until the next call to Next on
// the same program: a generator may hand out one reused buffer (the stamp
// profiles do). The machine reads them only while the instance is current;
// anything that keeps an instance longer must copy its Ops.
type Program interface {
	Next(rng *sim.RNG) (tx TxInstance, ok bool)
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(rng *sim.RNG) (TxInstance, bool)

// Next implements Program.
func (f ProgramFunc) Next(rng *sim.RNG) (TxInstance, bool) { return f(rng) }

// SliceProgram runs a fixed list of transactions in order.
type SliceProgram struct {
	Txs []TxInstance
	pos int
}

// Next implements Program.
func (p *SliceProgram) Next(*sim.RNG) (TxInstance, bool) {
	if p.pos >= len(p.Txs) {
		return TxInstance{}, false
	}
	tx := p.Txs[p.pos]
	p.pos++
	return tx, true
}

// Workload builds one Program per node plus descriptive metadata. It is the
// unit the experiment harness sweeps over.
type Workload interface {
	// Name is the workload's report label (e.g. "intruder").
	Name() string
	// HighContention marks the paper's high-contention set (bayes,
	// intruder, labyrinth, yada).
	HighContention() bool
	// Program returns node's thread. rng is private to the node.
	Program(node int, rng *sim.RNG) Program
}

// FootprintHinter is an optional Workload extension: FootprintLines returns
// an upper-bound estimate of the distinct cache lines an n-node run
// touches. Machine.Reset (or, for a sharded run, the pdes coordinator)
// passes it to Interner.Grow, which sizes the interner's line slice; a
// shared interner cannot grow, so sharding requires the hint. Nothing else
// reads it: the dense LineID-indexed tables grow on first touch by
// mem.Extend's rule.
type FootprintHinter interface {
	FootprintLines(nodes int) int
}
