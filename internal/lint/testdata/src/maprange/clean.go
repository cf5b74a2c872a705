// clean.go proves maprange produces no false positives on idiomatic
// order-insensitive code that never ranges a map.
package maprange

func cleanLookups(m map[int]string, keys []int) int {
	n := 0
	for _, k := range keys {
		if v, ok := m[k]; ok {
			n += len(v)
		}
	}
	n += len(m)
	return n
}

func cleanArrays(a [4]uint64) uint64 {
	var t uint64
	for i, v := range a {
		t += uint64(i) * v
	}
	return t
}

// allowlistedRebuild carries a maprange row in the exemptions table (the
// fixture rows live in lint_test.go), modelled on the interner's Grow
// rebuild: its map range must NOT fire.
func allowlistedRebuild(old map[int]string) map[int]string {
	fresh := make(map[int]string, len(old))
	for k, v := range old {
		fresh[k] = v
	}
	return fresh
}
