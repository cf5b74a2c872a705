package shardconfine

// workerShardLocal is the good worker shape: shard-local mutation plus the
// shared interner's read-mostly API only.
//
//puno:worker
func workerShardLocal(sh *shard) {
	sh.entries = append(sh.entries, sh.nextAt)
	id := sh.it.Intern(0)
	_ = sh.it.LineAt(id)
}

// resetWire is the fixture's blessed serial edge (mirrors
// Machine.resetShard / Coordinator.Reset); it carries a
// shardconfine/interner row in the exemptions table, and the Machine's
// resetWire below a shardconfine/wiring row (fixture rows: lint_test.go).
func (e *Env) resetWire(lo, hi int) {
	e.it.Reset()
	e.it.Grow(256)
	e.it.SetShared(true)
}

// resetWire installs the Machine's shard wiring at the one blessed
// construction point.
func (m *Machine) resetWire(lo, hi int) {
	m.lo, m.hi = lo, hi
	m.xsend = func() {}
	m.it = m.ownIt
}
