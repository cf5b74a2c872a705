// Package stamp provides synthetic transactional workloads modelled on the
// eight STAMP benchmarks the paper evaluates (Table I). The real STAMP
// applications are C programs; what the paper's results depend on is their
// contention structure — transaction length, read/write-set size, degree of
// read sharing, write dispersion, and the read-modify-write idiom — so each
// generator reproduces that structure, calibrated so the baseline machine
// matches Table I's abort rates and Fig. 2's false-aborting fractions (see
// EXPERIMENTS.md for the calibration record).
//
// The profiles are built from weighted transaction Classes; NewProfile
// builds a custom workload from Classes, for users who want to explore
// other contention shapes.
package stamp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Class describes one static transaction: a weighted recipe for generating
// dynamic instances.
type Class struct {
	// StaticID labels the TX_BEGIN site (feeds the TxLB and RMW predictor).
	StaticID int
	// Weight is the relative frequency of this class.
	Weight int

	// Region is the shared address region this class operates on, in
	// cache lines starting at RegionBase.
	RegionBase  mem.Line
	RegionLines int

	// ReadWholeRegion makes every instance read the full region in order
	// (the labyrinth grid-copy pattern). Otherwise ReadsMin..ReadsMax
	// distinct random lines are read.
	ReadWholeRegion    bool
	ReadsMin, ReadsMax int

	// WritesMin..WritesMax lines are written. WritesFromReads picks them
	// among the lines read (write-after-read); otherwise they are fresh
	// random region lines.
	WritesMin, WritesMax int
	WritesFromReads      bool

	// RMW makes writes use the load-linked/increment idiom (OpIncr),
	// training the RMW predictor (kmeans, ssca2).
	RMW bool

	// HotLines, when nonzero, redirects writes to the first HotLines
	// lines of the region (queue heads, root nodes).
	HotLines int

	// PrivateLines adds that many reads+writes on a node-private stripe
	// (realistic non-conflicting traffic).
	PrivateLines int

	// ComputePerRead cycles are spent after each read; BodyCompute after
	// the read phase; Think between transactions (non-transactional).
	ComputePerRead sim.Time
	BodyCompute    sim.Time
	Think          sim.Time
}

// Profile is a complete synthetic benchmark: a name, the paper's
// contention classification, and the static transaction classes.
type Profile struct {
	name     string
	high     bool
	txPerCPU int
	classes  []Class
	// PaperAbortRate is Table I's baseline abort percentage for the real
	// benchmark (recorded for EXPERIMENTS.md comparison).
	PaperAbortRate float64
}

// NewProfile builds a custom synthetic workload from transaction classes —
// the same machinery the eight STAMP profiles use. high marks it as
// high-contention for reporting; txPerCPU is the number of transactions
// each node runs.
func NewProfile(name string, high bool, txPerCPU int, paperAbortRate float64, classes ...Class) *Profile {
	if len(classes) == 0 {
		panic("stamp: profile needs at least one class")
	}
	return &Profile{
		name: name, high: high, txPerCPU: txPerCPU,
		PaperAbortRate: paperAbortRate, classes: classes,
	}
}

// FootprintLines implements machine.FootprintHinter: an upper bound on the
// distinct cache lines an n-node run touches, used to pre-size the
// machine's line interner and its dense tables. Shared regions contribute
// their full extent (regions of different classes may overlap — the bound
// need not be tight); private traffic contributes, per node, at most
// PrivateLines per transaction instance, and genInstance cycles the stripe
// modulo 2048 lines, so the per-node private footprint is the smaller of
// the two.
func (p *Profile) FootprintLines(nodes int) int {
	n := 0
	maxPriv := 0
	for _, cl := range p.classes {
		n += cl.RegionLines
		if cl.PrivateLines > maxPriv {
			maxPriv = cl.PrivateLines
		}
	}
	priv := maxPriv * p.txPerCPU
	if priv > 2048 {
		priv = 2048
	}
	return n + priv*nodes
}

// Name implements machine.Workload.
func (p *Profile) Name() string { return p.name }

// HighContention implements machine.Workload.
func (p *Profile) HighContention() bool { return p.high }

// TxPerCPU returns the number of transactions each node runs.
func (p *Profile) TxPerCPU() int { return p.txPerCPU }

// Classes exposes the static transaction recipes (inspection and tests).
func (p *Profile) Classes() []Class { return p.classes }

// WithTxPerCPU returns a copy running n transactions per node (benchmark
// scaling).
func (p *Profile) WithTxPerCPU(n int) *Profile {
	cp := *p
	cp.txPerCPU = n
	return &cp
}

// privateBase returns the start of a node's private stripe, far above all
// shared regions.
func privateBase(node int) mem.Line {
	return mem.Line(0x4000_0000 + uint64(node)*0x40_0000)
}

// Program implements machine.Workload.
func (p *Profile) Program(node int, rng *sim.RNG) machine.Program {
	count := 0
	totalWeight := 0
	var maxOps, maxReads, maxLines int
	for _, c := range p.classes {
		totalWeight += c.Weight
		maxOps = max(maxOps, c.opBound())
		maxReads = max(maxReads, c.maxReads())
		maxLines = max(maxLines, c.RegionLines)
	}
	if totalWeight == 0 {
		panic(fmt.Sprintf("stamp: profile %q has no weighted classes", p.name))
	}
	priv := privateBase(node)
	privSeq := 0
	// The program's buffers are sized for its largest class up front, so a
	// run's allocation count does not depend on which classes a node draws
	// or on how many transactions it runs.
	scratch := genScratch{
		seen:    make([]uint64, (maxLines+63)/64),
		readIdx: make([]int, 0, maxReads),
		ops:     make([]machine.Op, 0, maxOps),
	}
	return machine.ProgramFunc(func(r *sim.RNG) (machine.TxInstance, bool) {
		if count >= p.txPerCPU {
			return machine.TxInstance{}, false
		}
		count++
		// Pick a class by weight.
		pick := r.Intn(totalWeight)
		var cl Class
		for _, c := range p.classes {
			if pick < c.Weight {
				cl = c
				break
			}
			pick -= c.Weight
		}
		return genInstance(cl, r, priv, &privSeq, &scratch), true
	})
}

// l1Sets is the set count of the default 32KB/4-way L1. The generator
// caps a transaction's footprint at three lines per set (one fewer than
// the associativity) so that pinned transactional lines can never
// overflow a set — the simulated HTM, like most real eager HTMs without
// an overflow path, aborts unrecoverably when a set fills with
// transactional lines.
const (
	l1Sets    = 128
	maxPerSet = 3
)

// genScratch holds the flat scratch buffers one program's genInstance calls
// reuse across transaction instances: the per-set footprint counters, the
// seen bitmap for distinct random read selection, the read-index list, and
// the op list the returned instance aliases (machine.Program's contract: an
// instance's Ops are valid until the next Next on that program). Instance
// generation runs on the sweep hot path, once per transaction, so these
// replace what used to be two map allocations and one slice allocation per
// instance.
type genScratch struct {
	setCount [l1Sets]uint8
	seen     []uint64 // bitmap over region line indices
	readIdx  []int
	ops      []machine.Op
}

// maxReads is an upper bound on the shared lines one instance reads.
func (cl *Class) maxReads() int {
	if cl.ReadWholeRegion {
		return cl.RegionLines
	}
	return cl.ReadsMax
}

// opBound is an upper bound on the op count of one instance of the class.
func (cl *Class) opBound() int {
	maxReads := cl.maxReads()
	bound := 2*cl.PrivateLines + maxReads + cl.WritesMax + 1
	if cl.ComputePerRead > 0 {
		bound += maxReads
	}
	return bound
}

// genInstance builds one dynamic transaction from a class recipe. The
// returned Ops alias sc.ops (see genScratch).
func genInstance(cl Class, r *sim.RNG, priv mem.Line, privSeq *int, sc *genScratch) machine.TxInstance {
	ops := sc.ops[:0]
	lineAt := func(i int) mem.Line {
		return mem.Line(uint64(cl.RegionBase) + uint64(i)*mem.LineBytes)
	}
	setOf := func(l mem.Line) int { return int((uint64(l) / mem.LineBytes) % l1Sets) }
	clear(sc.setCount[:])
	fits := func(l mem.Line) bool { return sc.setCount[setOf(l)] < maxPerSet }
	take := func(l mem.Line) { sc.setCount[setOf(l)]++ }

	// Private stripe accesses come first so that shared-read op positions
	// are stable across instances: the RMW predictor keys on (static tx,
	// op index) as its "load PC", and real code has stable PCs.
	for i := 0; i < cl.PrivateLines; i++ {
		l := mem.Line(uint64(priv) + uint64((*privSeq)%2048)*mem.LineBytes)
		*privSeq++
		if !fits(l) {
			continue
		}
		take(l)
		ops = append(ops, machine.Op{Kind: machine.OpRead, Addr: l.Word(0)})
		ops = append(ops, machine.Op{Kind: machine.OpWrite, Addr: l.Word(1), Value: uint64(*privSeq)})
	}

	// Read phase.
	readIdx := sc.readIdx[:0]
	if cl.ReadWholeRegion {
		for i := 0; i < cl.RegionLines; i++ {
			if fits(lineAt(i)) {
				take(lineAt(i))
				readIdx = append(readIdx, i)
			}
		}
	} else if cl.ReadsMax > 0 {
		n := cl.ReadsMin
		if cl.ReadsMax > cl.ReadsMin {
			n += r.Intn(cl.ReadsMax - cl.ReadsMin + 1)
		}
		seen := sc.seen[:(cl.RegionLines+63)/64]
		clear(seen)
		for attempts := 0; len(readIdx) < n && attempts < 8*cl.RegionLines; attempts++ {
			i := r.Intn(cl.RegionLines)
			if seen[i>>6]&(1<<(uint(i)&63)) == 0 && fits(lineAt(i)) {
				seen[i>>6] |= 1 << (uint(i) & 63)
				take(lineAt(i))
				readIdx = append(readIdx, i)
			}
		}
	}
	for _, i := range readIdx {
		ops = append(ops, machine.Op{Kind: machine.OpRead, Addr: lineAt(i).Word(0)})
		if cl.ComputePerRead > 0 {
			ops = append(ops, machine.Op{Kind: machine.OpCompute, Cycles: cl.ComputePerRead})
		}
	}

	if cl.BodyCompute > 0 {
		ops = append(ops, machine.Op{Kind: machine.OpCompute, Cycles: cl.BodyCompute})
	}

	// Write phase.
	nw := cl.WritesMin
	if cl.WritesMax > cl.WritesMin {
		nw += r.Intn(cl.WritesMax - cl.WritesMin + 1)
	}
	for w := 0; w < nw; w++ {
		var i int
		found := false
		for attempts := 0; attempts < 64 && !found; attempts++ {
			switch {
			case cl.HotLines > 0:
				i = r.Intn(cl.HotLines)
			case cl.WritesFromReads && len(readIdx) > 0:
				// Write the first reads, in order: the "load that will be
				// stored" then sits at a stable op position across
				// instances, as a real static RMW site would.
				i = readIdx[w%len(readIdx)]
			default:
				i = r.Intn(cl.RegionLines)
			}
			// Lines already read fit by construction; fresh lines must
			// not overflow a set.
			if cl.WritesFromReads || fits(lineAt(i)) {
				found = true
			}
		}
		if !found {
			continue
		}
		if !cl.WritesFromReads && cl.HotLines == 0 {
			take(lineAt(i))
		}
		addr := lineAt(i).Word(0)
		if cl.RMW {
			ops = append(ops, machine.Op{Kind: machine.OpIncr, Addr: addr})
		} else {
			ops = append(ops, machine.Op{Kind: machine.OpWrite, Addr: addr, Value: r.Uint64()})
		}
	}

	sc.readIdx, sc.ops = readIdx, ops // hand the (possibly grown) buffers back for reuse
	return machine.TxInstance{StaticID: cl.StaticID, Ops: ops, ThinkCycles: cl.Think}
}
