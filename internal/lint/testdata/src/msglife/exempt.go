package msglife

import (
	"repro/internal/coherence"
)

// blessedPoolReclaim stands in for the pool internals (Machine.freeMsg):
// it owns the free list, so storing the pointer IS the job. It is silent
// only under its msglife row in the exemptions table, which lint_test.go
// appends; a run without that row (punovet on this fixture) reports it.
func blessedPoolReclaim(e *valueEnv, m *coherence.Msg) {
	e.free = append(e.free, m)
}
