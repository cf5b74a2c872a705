package lint

import "go/types"

// exemption is one reviewed row of the exemptions table: the function fn
// may do what check forbids, for the written reason.
type exemption struct {
	fn     string // types.Func.FullName() of the exempt function
	check  string // which check the row speaks to (see exemptions)
	reason string // mandatory: why the invariant holds anyway
}

// exemptions is punovet's only exemption mechanism. A row is a structural
// claim about a whole function, reviewed like code: the function itself
// must guarantee what the check cannot see. What a row grants, by check:
//
//   - maprange: fn's body may range over maps.
//   - msglife: fn's body may store *coherence.Msg pointers.
//   - escapegate: a call to fn inside a hot function may allocate. The
//     compiler attributes an inlined helper's allocation to the call site
//     in the hot body, so the row keys on the callee, not the site; every
//     row is amortized growth or a cold path, so steady-state events pay
//     zero heap traffic — the property TestWarmArenaRunAllocs pins.
//
// TestAllowlistsResolve rejects a row whose function is not declared in
// the tree, whose reason is empty, whose check does not exist, or that has
// stopped being needed (with the row masked its check still reports
// nothing). Fixture rows live in lint_test.go.
var exemptions = []exemption{
	{"(*repro/internal/machine.Machine).freeMsg", "msglife",
		"owns the free list: the stored pointers are the pool"},

	{"(*repro/internal/machine.Machine).newMsg", escapeGateName,
		"message-pool miss: allocates only until the pool holds the run's peak in-flight count"},
	{"(*repro/internal/machine.node).msgTo", escapeGateName,
		"inlines Machine.newMsg (above) into the node's send sites"},
	{"(*repro/internal/htm.Tx).mustRun", escapeGateName,
		"panic-only state guard; allocates its message on the failure path"},
}

// exempt reports whether fn carries a row for check. fn may be nil.
func exempt(check string, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	name := fn.FullName()
	for _, e := range exemptions {
		if e.check == check && e.fn == name {
			return true
		}
	}
	return false
}
