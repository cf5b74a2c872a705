package machine

import (
	"testing"

	"repro/internal/mem"
)

// TestFirstLoadTableGrowthIsAmortized: first touches of ascending LineIDs —
// what a node walking a private stripe produces — reallocate the dense array
// O(log n) times, not once per new maximum (grow used to ignore the doubled
// capacity it had just asked for), and headroom re-exposed by a reslice
// reads as absent.
func TestFirstLoadTableGrowthIsAmortized(t *testing.T) {
	const n = 4096
	var tbl firstLoadTable
	reallocs := 0
	var base *int32
	for id := mem.LineID(1); id <= n; id++ {
		if _, ok := tbl.get(id); ok {
			t.Fatalf("id %d present before it was recorded", id)
		}
		tbl.record(id, int(id)%7)
		if p := &tbl.ops[0]; p != base {
			base = p
			reallocs++
		}
	}
	if reallocs > 13 { // log2(4096) + 1
		t.Errorf("%d ascending first touches reallocated the table %d times, want <= 13", n, reallocs)
	}
	for id := mem.LineID(1); id <= n; id++ {
		if op, ok := tbl.get(id); !ok || op != int(id)%7 {
			t.Fatalf("id %d: got %d/%v, want %d", id, op, ok, int(id)%7)
		}
	}
	tbl.reset()
	if _, ok := tbl.get(n / 2); ok {
		t.Fatal("reset left an entry behind")
	}
}
