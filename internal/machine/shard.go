package machine

import (
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// This file is the machine half of the conservative-PDES contract with
// internal/pdes. A shard is an ordinary Machine that owns a contiguous node
// range [lo, hi): it builds controllers (and consumes workload programs)
// only for owned nodes, runs their events on its private engine and
// two-level wheel, delivers node-local messages over its private mesh, and
// hands every remote send to the coordinator's xsend hook. The coordinator
// owns the window loop, the (cycle, seq) merge, the one global mesh whose
// link state all remote traffic contends on, and the shared interner.

// NewShard builds a machine owning nodes [lo, hi) of cfg. it is the
// coordinator-owned shared interner (already reset, pre-sized to the
// workload footprint, and armed with SetShared); xsend receives every
// remote send during window execution.
func NewShard(cfg Config, wl Workload, lo, hi int, it *mem.Interner, xsend func(*coherence.Msg)) (*Machine, error) {
	m := &Machine{}
	if err := m.resetShard(cfg, wl, lo, hi, it, xsend); err != nil {
		return nil, err
	}
	return m, nil
}

// ResetShard is Reset for a shard arena: same reuse guarantees, shard-mode
// construction.
func (m *Machine) ResetShard(cfg Config, wl Workload, lo, hi int, it *mem.Interner, xsend func(*coherence.Msg)) error {
	return m.resetShard(cfg, wl, lo, hi, it, xsend)
}

// StartNode schedules owned node i's first fetch and counts it live — the
// per-node body of the serial Run's start loop. The coordinator brackets
// each call with Engine().SetSeq so start events carry their serial
// sequence numbers regardless of which shard schedules them.
func (m *Machine) StartNode(i int) {
	m.active++
	m.nodes[i].start()
}

// InjectDeliver schedules a remote message's arrival at its destination
// (owned by this shard) at absolute time t, on the same handler the mesh
// delivers local arrivals through. The caller brackets it with
// Engine().SetSeq so the arrival event carries the serial run's sequence
// number for that delivery.
//
//puno:hot
func (m *Machine) InjectDeliver(t sim.Time, msg *coherence.Msg) {
	m.eng.AtEvent(t, (*arrival)(m), msg, uint64(msg.Dst))
}

// Active returns the number of owned nodes still running their programs.
func (m *Machine) Active() int { return m.active }

// BalanceMsgPools levels the message pools of a shard set. A remote
// message pops from the sender's pool but is freed into the receiver's,
// so any net traffic imbalance starves the net-sender shards — they
// allocate fresh messages every run while net-receiver pools hoard. The
// coordinator calls this between runs; pool contents never affect
// behavior (fill sites overwrite messages wholesale).
func BalanceMsgPools(ms []*Machine) {
	if len(ms) < 2 {
		return
	}
	total := 0
	for _, m := range ms {
		total += len(m.msgFree)
	}
	share := total / len(ms)
	var spare []*coherence.Msg
	for _, m := range ms {
		if n := len(m.msgFree); n > share {
			spare = append(spare, m.msgFree[share:]...)
			m.msgFree = m.msgFree[:share]
		}
	}
	for _, m := range ms {
		if need := share - len(m.msgFree); need > 0 {
			n := len(spare)
			m.msgFree = append(m.msgFree, spare[n-need:]...)
			spare = spare[:n-need]
		}
	}
	// The division remainder (at most len(ms)-1 messages) goes to the
	// first pool rather than leaking out of the recycler.
	ms[0].msgFree = append(ms[0].msgFree, spare...)
}

// RunErr returns the error a handler raised via fail (nil while healthy).
// The coordinator polls it after every window in shard order, so a
// mid-window failure surfaces deterministically.
func (m *Machine) RunErr() error { return m.runErr }

// FinalizeShard computes the shard's slice of the run's Result after the
// event queues drain: completion time over owned nodes, the private mesh's
// traffic, and the owned directories' counters. A serial machine owns
// [0, Nodes) and Run ends in this; the coordinator merges shard results
// with MergeShardResults.
func (m *Machine) FinalizeShard() *Result {
	for i := m.lo; i < m.hi; i++ {
		if n := m.nodes[i]; n.doneAt > m.res.Cycles {
			m.res.Cycles = n.doneAt
		}
		ds := m.dirs[i].Stats()
		m.res.DirTxGETXBusy += ds.TxGETXBusy
		m.res.DirTxGETXServices += ds.TxGETX
		m.res.DirBusyAll += ds.BusyCycles
		m.res.DirBusyNacks += ds.BusyNacks
		m.res.DirUnicasts += ds.UnicastForwards
		m.res.DirMulticastFwds += ds.MulticastFwds
		m.res.Mispredictions += ds.Mispredictions
	}
	m.res.Net = m.mesh.Stats()
	return &m.res
}

// MergeShardResults folds per-shard results into one machine-level Result,
// plus the global mesh's routed-traffic statistics: counters sum, per-node
// tallies concatenate element-wise (each shard only writes its owned
// indices), completion time is the max, and the false-abort histogram adds
// bucket-wise. The merged result is value-identical to the serial run's.
func MergeShardResults(workload string, scheme Scheme, nodes int, parts []*Result, routed noc.Stats) *Result {
	r := &Result{}
	r.reset(workload, scheme, nodes)
	r.Net = routed
	for _, p := range parts {
		if p.Cycles > r.Cycles {
			r.Cycles = p.Cycles
		}
		r.Commits += p.Commits
		r.Aborts += p.Aborts
		for c := range p.AbortsByCause {
			r.AbortsByCause[c] += p.AbortsByCause[c]
		}
		r.TxGETXIssued += p.TxGETXIssued
		r.TxGETXAccesses += p.TxGETXAccesses
		for o := range p.GETXOutcomes {
			r.GETXOutcomes[o] += p.GETXOutcomes[o]
		}
		for k, c := range p.FalseAbortHist {
			if c != 0 {
				for len(r.FalseAbortHist) <= k {
					r.FalseAbortHist = append(r.FalseAbortHist, 0)
				}
				r.FalseAbortHist[k] += c
			}
		}
		r.GoodCycles += p.GoodCycles
		r.DiscardedCycles += p.DiscardedCycles
		r.Net.Accumulate(p.Net)
		r.DirTxGETXBusy += p.DirTxGETXBusy
		r.DirTxGETXServices += p.DirTxGETXServices
		r.DirBusyAll += p.DirBusyAll
		r.DirBusyNacks += p.DirBusyNacks
		r.DirUnicasts += p.DirUnicasts
		r.DirMulticastFwds += p.DirMulticastFwds
		r.Mispredictions += p.Mispredictions
		r.Nacks += p.Nacks
		r.Retries += p.Retries
		r.BackoffCycles += p.BackoffCycles
		r.RestartWaitCycle += p.RestartWaitCycle
		r.NotifiedBackoffs += p.NotifiedBackoffs
		for i, v := range p.PerNodeCommits {
			r.PerNodeCommits[i] += v
		}
		for i, v := range p.PerNodeAborts {
			r.PerNodeAborts[i] += v
		}
	}
	return r
}
