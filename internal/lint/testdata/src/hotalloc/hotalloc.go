// Package hotalloc is the firing fixture for the hotalloc analyzer: appends
// that grow a slice declared fresh inside a hot function. The compiler's
// escape diagnostics say nothing about any of them (the escapegate
// fixture's hotAppendFresh is the same shape under the gate), which is why
// this check exists.
package hotalloc

type msg struct{ a, b uint64 }

type dispatcher struct {
	queue   []msg
	scratch []int
}

// OnEvent has the sim.Handler signature, so it is hot without annotation.
func (d *dispatcher) OnEvent(arg any, word uint64) {
	var fresh []int
	fresh = append(fresh, int(word)) // want "append grows function-local slice fresh"
	d.scratch = fresh
	lit := []msg{}
	lit = append(lit, msg{a: word}) // want "append grows function-local slice lit"
	d.queue = lit
}

// onEventWrongSig is NOT hot: the signature does not match sim.Handler, and
// there is no annotation.
func (d *dispatcher) onEventWrongSig(word uint32) {
	var fresh []int
	d.scratch = append(fresh, int(word))
}

// hotAnnotated is hot via the doc-comment annotation.
//
//puno:hot
func hotAnnotated(d *dispatcher, n int) {
	made := make([]int, 0, 4)
	for i := 0; i < n; i++ {
		made = append(made, i) // want "append grows function-local slice made"
	}
	d.scratch = made
}
