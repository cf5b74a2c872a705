// Package maprange is the firing fixture for the maprange analyzer.
package maprange

var sink int

// bad ranges over maps — every one must be flagged.
func bad(m map[int]string, nested map[string]map[int]int) {
	for k := range m { // want "map iteration order is nondeterministic"
		sink += k
	}
	for k, v := range m { // want "map iteration order is nondeterministic"
		sink += k + len(v)
	}
	for _, inner := range nested { // want "map iteration order is nondeterministic"
		for k := range inner { // want "map iteration order is nondeterministic"
			sink += k
		}
	}
}

// namedMap proves the check goes through Underlying: named map types are
// still maps.
type namedMap map[uint64]bool

func badNamed(m namedMap) {
	for k := range m { // want "map iteration order is nondeterministic"
		sink += int(k)
	}
}

// sliceAndChannelOK proves non-map ranges never fire.
func sliceAndChannelOK(s []int, ch chan int) {
	for _, v := range s {
		sink += v
	}
	for v := range ch {
		sink += v
	}
}
