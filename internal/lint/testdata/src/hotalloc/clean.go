// clean.go proves hotalloc allows the append idioms the simulator actually
// uses: reusable field buffers, scratch re-slicing, appends to parameters.
package hotalloc

type pool struct {
	free []*msg
}

type engine struct {
	slab    []msg
	scratch []int
	p       pool
}

// OnEvent is hot (sim.Handler signature) but never grows a fresh slice.
func (e *engine) OnEvent(arg any, word uint64) {
	m := arg.(*msg)
	m.a = word
	// Appending to a field reuses its capacity (the slab/scratch idiom).
	e.slab = append(e.slab, *m)
	// Local re-sliced from an existing buffer is the reusable-scratch idiom.
	out := e.scratch[:0]
	out = append(out, int(word))
	e.scratch = fill(out, word)
	e.retain(m)
}

// fill appends to a parameter: the caller owns the capacity.
//
//puno:hot
func fill(dst []int, word uint64) []int {
	return append(dst, int(word>>32))
}

func (e *engine) retain(m *msg) { e.p.free = append(e.p.free, m) }

// cold is unannotated and not a handler: hotalloc ignores it entirely.
func cold() []msg {
	var out []msg
	for i := 0; i < 16; i++ {
		out = append(out, msg{a: uint64(i)})
	}
	return out
}
