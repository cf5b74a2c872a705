// Package directive is the fixture for the directive checker itself: the
// only //puno: comments are the bare markers hot and worker, so every
// other one is a finding in its own right — the retired per-site verbs
// included, which exempt nothing.
package directive

var sink int

func directives(m map[int]int) {
	//puno:unordered — retired verb: a finding, and the range below still fires
	for k := range m { // want "map iteration order is nondeterministic"
		sink += k
	}
	//puno:allow maprange — retired verb: a finding, and the range below still fires
	for k := range m { // want "map iteration order is nondeterministic"
		sink += k
	}
	//puno:frobnicate — no such verb
	for _, v := range []int{1, 2} {
		sink += v
	}
	//puno:hot with trailing junk
	for _, v := range []int{3} {
		sink += v
	}
}
