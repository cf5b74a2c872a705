// Package escapegate is the punovet fixture for the compiler-backed
// escape gate: heap allocations the gc escape analysis reports inside
// //puno:hot functions are findings, while panic paths, constant strings,
// and blessed amortized-growth callees are filtered out. Unlike the AST
// fixtures, the expectations here are matched against real `go build
// -gcflags=-m=2` output, so every shape is chosen to have a stable,
// version-independent escape verdict (stored in a package var, returned
// from the function, or captured by a sink).
package escapegate

import (
	"fmt"

	"repro/internal/sim"
)

type record struct {
	vals [4]uint64
}

type table struct {
	slots []uint64
}

var (
	escaped  *record
	intSink  *int
	funcSink func()
	anySink  any
	intsSink []int
)

// hotLeak parks a fresh composite in a package var: the textbook
// per-event heap allocation the gate exists to catch.
//
//puno:hot
func hotLeak() {
	r := &record{} // want "escapes to heap"
	escaped = r
}

// hotMake returns a freshly made slice, which must escape.
//
//puno:hot
func hotMake(n int) []uint64 {
	return make([]uint64, n) // want "escapes to heap"
}

// hotMoved leaks the address of a local, moving it to the heap.
//
//puno:hot
func hotMoved() {
	x := 0 // want "moved to heap"
	intSink = &x
}

// hotClosure parks a func literal that captures its argument.
//
//puno:hot
func hotClosure(t *table) {
	funcSink = func() { t.slots = nil } // want "func literal escapes to heap"
}

// hotNew parks a new'd object.
//
//puno:hot
func hotNew() {
	escaped = new(record) // want "escapes to heap"
}

// hotBox passes values where an interface is kept: each is boxed on the
// heap, basic and struct alike.
//
//puno:hot
func hotBox(word uint64) {
	keep(word)                          // want "word escapes to heap"
	keep(record{vals: [4]uint64{word}}) // want "escapes to heap"
}

func keep(v any) { anySink = v }

// hotAppendFresh grows a slice declared in the function and keeps it. It
// allocates on every call, and the compiler says nothing: growth happens in
// runtime.growslice, which escape analysis does not report. No finding is
// wanted here because the gate cannot produce one — this shape is what the
// hotalloc analyzer is kept for (its fixture flags it).
//
//puno:hot
func hotAppendFresh(word uint64) {
	var fresh []int
	fresh = append(fresh, int(word))
	intsSink = fresh
}

// hf adapts a plain function to sim.Handler: the adapter a closure needs
// to reach the scheduler. The tree has none (every handler is a pointer to
// a long-lived struct, which TestHandlersAreLongLivedStructs pins).
type hf func(arg any, word uint64)

func (f hf) OnEvent(arg any, word uint64) { f(arg, word) }

// hotClosureHandler schedules a capturing closure through the adapter,
// once as a literal and once through a local — the two shapes the retired
// handlerfunc analyzer matched by syntax. Every scheduling site in the
// tree sits in a hot function, so the gate reports both.
//
//puno:hot
func hotClosureHandler(eng *sim.Engine) {
	n := 0                                                         // want "moved to heap: n"
	eng.AtEvent(5, hf(func(arg any, word uint64) { n++ }), nil, 0) // want "func literal escapes to heap"
	local := func(arg any, word uint64) { n++ }                    // want "func literal escapes to heap"
	eng.AfterEvent(5, hf(local), nil, 0)
}

// tracer is a debug hook with two helpers. trace is variadic ...any and
// tests the hook inside the callee, too late to save the caller from boxing
// its arguments whether or not anyone listens; traceWord is typed.
type tracer struct {
	hook    func(string)
	tracing bool
	words   [8]uint64
}

func (tr *tracer) trace(format string, args ...any) {
	if tr.hook != nil {
		tr.hook(fmt.Sprintf(format, args...))
	}
}

func (tr *tracer) traceWord(i int, v uint64) {
	tr.hook(fmt.Sprintf("read %d = %d", i, v))
}

// hotVariadicTrace boxes the word at the call site on every call.
//
//puno:hot
func hotVariadicTrace(tr *tracer, i int) uint64 {
	tr.trace("read = %d", tr.words[i]) // want "escapes to heap"
	return tr.words[i]
}

// hotTypedTrace guards the typed helper behind a cached flag: no findings.
//
//puno:hot
func hotTypedTrace(tr *tracer, i int) uint64 {
	if tr.tracing {
		tr.traceWord(i, tr.words[i])
	}
	return tr.words[i]
}

// hotClean is steady-state arithmetic over existing storage: no findings.
//
//puno:hot
func hotClean(t *table, id int) uint64 {
	if id < len(t.slots) {
		return t.slots[id] * 3
	}
	return 0
}

// hotBlessed hits the amortized-growth idiom: growSlot's allocation is
// inlined into the call site here, and the gate blesses the line because
// the callee has an escapegate row in the exemptions table (fixture rows:
// lint_test.go).
//
//puno:hot
func hotBlessed(t *table, id int) uint64 {
	if id >= len(t.slots) {
		growSlot(t, id)
	}
	return t.slots[id]
}

// hotPanicPath allocates only inside a panic call: cold by definition,
// filtered by the gate.
//
//puno:hot
func hotPanicPath(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("escapegate: negative count %d", n))
	}
	return n * 2
}

// growSlot doubles the dense table; it allocates only on growth, the
// blessed amortized idiom.
func growSlot(t *table, id int) {
	ns := make([]uint64, id+1)
	copy(ns, t.slots)
	t.slots = ns
}

// coldMake allocates outside any hot function: never a finding.
func coldMake(n int) []uint64 {
	return make([]uint64, n)
}
