package msglife

import (
	"repro/internal/coherence"
)

// valueEnv parks messages the blessed way: by value.
type valueEnv struct {
	pending []coherence.Msg
	unblock coherence.Msg
	free    []*coherence.Msg
}

// parkByValue is the contract's good shape: dereference and copy. The
// stored values are coherence.Msg, not pointers, so nothing aliases the
// pool after the handler returns.
func parkByValue(e *valueEnv, m *coherence.Msg) {
	e.pending = append(e.pending, *m)
	e.unblock = *m
	local := m // locals die with the handler; fine
	_ = local
}

// overwriteInPlace is the pool-send idiom: *p = msg rewrites the pointee,
// parking nothing.
func overwriteInPlace(p *coherence.Msg, msg coherence.Msg) {
	*p = msg
}
