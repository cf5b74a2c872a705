// Package tracebox is the punovet fixture for the bug shape that kept
// Machine.Run allocating for six PRs: a variadic ...any debug-trace helper
// that tests its hook inside the callee, called from a hot function. The
// arguments are boxed into a []any at the call site whether or not anyone
// listens. The escape gate must flag the boxed uint64; the typed helper
// behind a cached flag — the fix — must stay clean.
package tracebox

import "fmt"

type node struct {
	hook    func(string)
	tracing bool
	words   [8]uint64
}

// trace is the variadic helper: the nil test is here, too late to save the
// caller from building args.
func (n *node) trace(format string, args ...any) {
	if n.hook != nil {
		n.hook(fmt.Sprintf(format, args...))
	}
}

// traceRead is the typed per-site helper.
func (n *node) traceRead(i int, v uint64) {
	n.hook(fmt.Sprintf("read %d = %d", i, v))
}

// hotRead is the parent-commit shape of node.readPhaseDone.
//
//puno:hot
func (n *node) hotRead(i int) uint64 {
	n.trace("read = %d", n.words[i])
	return n.words[i]
}

// hotReadFixed is the shape this repo uses now.
//
//puno:hot
func (n *node) hotReadFixed(i int) uint64 {
	if n.tracing {
		n.traceRead(i, n.words[i])
	}
	return n.words[i]
}
