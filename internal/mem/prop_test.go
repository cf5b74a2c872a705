package mem

import (
	"testing"

	"repro/internal/sim"
)

// randLine draws from a small pool of word-aligned lines so streams revisit
// lines often (exercising the dense-table fast paths, not just first touch).
func randLine(rng *sim.RNG, pool int) Line {
	return Line(uint64(rng.Intn(pool)) * LineBytes)
}

// TestBackingMatchesMapModel drives a dense Backing and a plain
// map[Line]LineData reference model with the same seeded random operation
// stream — stores, loads, word accesses, and full Resets — and requires
// them to agree after every step. This is the contract the machine relies
// on when it swaps the old map-backed L2 for the LineID-indexed slab.
func TestBackingMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 977)
		b := NewBacking()
		model := make(map[Line]LineData)
		for step := 0; step < 4000; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // whole-line store
				l := randLine(rng, 64)
				var d LineData
				for w := range d {
					d[w] = rng.Uint64()
				}
				b.Store(l, d)
				model[l] = d
			case 3, 4: // word store
				l := randLine(rng, 64)
				w := rng.Intn(WordsPerLine)
				v := rng.Uint64()
				b.StoreWord(l.Word(w), v)
				d := model[l]
				d[w] = v
				model[l] = d
			case 5, 6, 7: // whole-line load
				l := randLine(rng, 64)
				if got, want := b.Load(l), model[l]; got != want {
					t.Fatalf("seed %d step %d: Load(%v) = %v, want %v", seed, step, l, got, want)
				}
			case 8: // word load
				l := randLine(rng, 64)
				w := rng.Intn(WordsPerLine)
				if got, want := b.LoadWord(l.Word(w)), model[l][w]; got != want {
					t.Fatalf("seed %d step %d: LoadWord(%v.%d) = %d, want %d", seed, step, l, w, got, want)
				}
			case 9:
				if rng.Intn(100) == 0 { // rare: reset and keep going (capacity reuse)
					b.Reset()
					clear(model)
				}
			}
		}
		// ID-indexed reads agree with the line-addressed model too.
		it := b.Interner()
		for l, want := range model {
			if got := b.LoadID(it.Lookup(l)); got != want {
				t.Fatalf("seed %d: LoadID(%v) = %v, want %v", seed, l, got, want)
			}
		}
	}
}

// TestBackingResetExposesZeroes verifies the zeroing discipline: after
// Reset, every previously stored line — including ones whose IDs force the
// dense array to re-extend within retained capacity — reads back zero.
func TestBackingResetExposesZeroes(t *testing.T) {
	b := NewBacking()
	lines := make([]Line, 200)
	for i := range lines {
		lines[i] = Line(uint64(i) * LineBytes)
		b.StoreWord(lines[i].Word(0), uint64(i)+1)
	}
	b.Reset()
	for _, l := range lines {
		if got := b.Load(l); got != (LineData{}) {
			t.Fatalf("after Reset, Load(%v) = %v, want zero", l, got)
		}
	}
	if b.Touched() != 0 {
		t.Fatalf("after Reset, Touched = %d, want 0", b.Touched())
	}
}

// TestInternerDeterministicAssignment replays the same touch stream on a
// fresh interner and on a Reset-reused one (including one that Grow has
// rebuilt mid-stream) and requires identical ID assignments — the property
// that keeps LineID-indexed tables trajectory-equivalent to map[Line] ones.
func TestInternerDeterministicAssignment(t *testing.T) {
	stream := func(rng *sim.RNG, n int) []Line {
		ls := make([]Line, n)
		for i := range ls {
			ls[i] = randLine(rng, 300)
		}
		return ls
	}
	touches := stream(sim.NewRNG(42), 5000)

	assign := func(it *Interner) []LineID {
		ids := make([]LineID, len(touches))
		for i, l := range touches {
			if i == len(touches)/2 {
				it.Grow(1024) // mid-stream growth must not disturb live IDs
			}
			ids[i] = it.Intern(l)
		}
		return ids
	}

	fresh := assign(NewInterner())
	reused := NewInterner()
	// Dirty the interner with an unrelated stream, then Reset.
	for _, l := range stream(sim.NewRNG(7), 1000) {
		reused.Intern(l)
	}
	reused.Reset()
	again := assign(reused)

	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("touch %d: fresh interner assigned %d, reused one %d", i, fresh[i], again[i])
		}
	}
}

// TestInternerInvariants checks the structural invariants under a random
// Intern/Lookup/Grow/Reset interleave: IDs are dense from 1 in touch
// order, LineAt inverts Intern, and Lookup agrees with the assignment map.
func TestInternerInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed * 31)
		it := NewInterner()
		model := make(map[Line]LineID)
		next := LineID(1)
		for step := 0; step < 3000; step++ {
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				l := randLine(rng, 200)
				id := it.Intern(l)
				if want, ok := model[l]; ok {
					if id != want {
						t.Fatalf("seed %d step %d: Intern(%v) = %d, want stable %d", seed, step, l, id, want)
					}
				} else {
					if id != next {
						t.Fatalf("seed %d step %d: first touch of %v got %d, want dense next %d", seed, step, l, id, next)
					}
					model[l] = id
					next++
				}
				if back := it.LineAt(id); back != l {
					t.Fatalf("seed %d step %d: LineAt(%d) = %v, want %v", seed, step, id, back, l)
				}
			case 4, 5:
				l := randLine(rng, 200)
				if got := it.Lookup(l); got != model[l] {
					t.Fatalf("seed %d step %d: Lookup(%v) = %d, want %d", seed, step, l, got, model[l])
				}
			case 6:
				it.Grow(rng.Intn(600))
			case 7:
				if rng.Intn(50) == 0 {
					it.Reset()
					clear(model)
					next = 1
				}
			}
			if it.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, it.Len(), len(model))
			}
		}
	}
}

// internCheck interns stream into it, step by step, against a first-touch
// model seeded with it's current assignment (model, in ID order), calling
// mid (if non-nil) before touch i == len(stream)/2. After every touch it
// requires IDs dense in first-touch order, LineAt to invert Intern, and
// Lookup to agree with the model. It returns the grown model.
func internCheck(t *testing.T, it *Interner, model []Line, stream []Line, mid func()) []Line {
	t.Helper()
	ids := make(map[Line]LineID, len(model))
	for i, l := range model {
		ids[l] = LineID(i + 1)
	}
	for i, l := range stream {
		if i == len(stream)/2 && mid != nil {
			mid()
		}
		want, seen := ids[l]
		if !seen {
			want = LineID(len(model) + 1)
			model = append(model, l)
			ids[l] = want
		}
		if got := it.Intern(l); got != want {
			t.Fatalf("touch %d: Intern(%v) = %d, want %d (first touch %v)", i, l, got, want, !seen)
		}
		if back := it.LineAt(want); back != l {
			t.Fatalf("touch %d: LineAt(%d) = %v, want %v", i, want, back, l)
		}
		if got := it.Lookup(l + LineBytes<<40); got != ids[l+LineBytes<<40] {
			t.Fatalf("touch %d: Lookup of a far line = %d, want %d", i, got, ids[l+LineBytes<<40])
		}
	}
	if it.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", it.Len(), len(model))
	}
	for i, l := range model {
		if got := it.Lookup(l); got != LineID(i+1) {
			t.Fatalf("Lookup(%v) = %d, want %d", l, got, i+1)
		}
	}
	return model
}

// strideLines returns n lines spaced stride lines apart, each touched twice in
// a row (so hits interleave with first touches).
func strideLines(n int, stride uint64) []Line {
	ls := make([]Line, 0, 2*n)
	for i := 0; i < n; i++ {
		l := Line(uint64(i) * stride * LineBytes)
		ls = append(ls, l, l)
	}
	return ls
}

// TestInternerOpenAddressing drives the forward index through what its
// hashing and probing must survive: lines that share a home slot, a
// power-of-two stride, enough lines to rehash several times, a Grow
// partway through, and a Reset followed by re-interning.
func TestInternerOpenAddressing(t *testing.T) {
	t.Run("collisions", func(t *testing.T) {
		// 24 lines that all hash to one slot of the initial 64-slot table
		// (picked from a power-of-two stride), then their neighbours.
		probe := NewInterner()
		probe.Intern(0)
		var same []Line
		for k := uint64(1); len(same) < 24; k++ {
			if l := Line(k << 16 * LineBytes); probe.home(l) == probe.home(0) {
				same = append(same, l)
			}
		}
		it := NewInterner()
		model := internCheck(t, it, nil, same, nil)
		displaced := 0
		for _, l := range same {
			if it.slot(l) != it.home(l) {
				displaced++
			}
		}
		if displaced < len(same)-1 {
			t.Fatalf("only %d of %d same-home lines were displaced; the table never probed", displaced, len(same))
		}
		internCheck(t, it, model, strideLines(100, 1<<16), nil)
	})
	t.Run("rehash", func(t *testing.T) {
		it := NewInterner()
		internCheck(t, it, nil, strideLines(5000, 1<<12), nil)
		if len(it.table) < 2*5000 || len(it.table) > 4*5000 {
			t.Fatalf("table of %d slots for 5000 lines; load must stay in (¼, ½]", len(it.table))
		}
	})
	t.Run("grow", func(t *testing.T) {
		it := NewInterner()
		stream := strideLines(3000, 1<<10)
		internCheck(t, it, nil, stream, func() { it.Grow(20000) })
		if len(it.lines) < 20000 {
			t.Fatalf("Grow(20000) left room for %d lines", len(it.lines))
		}
		if len(it.table) > 4*3000 {
			t.Fatalf("table of %d slots for 3000 lines; Grow must not size the index off its hint", len(it.table))
		}
	})
	t.Run("reset", func(t *testing.T) {
		it := NewInterner()
		internCheck(t, it, nil, strideLines(2000, 1<<8), nil)
		size := len(it.table)
		it.Reset()
		if it.Len() != 0 || it.Lookup(Line(1<<8*LineBytes)) != 0 {
			t.Fatal("Reset left an assignment behind")
		}
		// Re-interning in another order assigns IDs in the new order.
		stream := strideLines(2000, 1<<8)
		for i, j := 0, len(stream)-1; i < j; i, j = i+1, j-1 {
			stream[i], stream[j] = stream[j], stream[i]
		}
		internCheck(t, it, nil, stream, nil)
		if len(it.table) != size {
			t.Fatalf("re-interning after Reset resized the table %d -> %d", size, len(it.table))
		}
	})
}

// An interner with no Grow pre-size grows its lines on demand, preserving
// existing assignments.
func TestInternerGrowsUnshared(t *testing.T) {
	it := NewInterner()
	for i := 0; i < 200; i++ {
		if got := it.Intern(Line(uint64(i+1) * 0x40)); got != LineID(i+1) {
			t.Fatalf("Intern #%d = %d, want %d", i, got, i+1)
		}
	}
	if it.Len() != 200 {
		t.Fatalf("Len = %d, want 200", it.Len())
	}
	for i := 0; i < 200; i++ {
		if got := it.LineAt(LineID(i + 1)); got != Line(uint64(i+1)*0x40) {
			t.Fatalf("LineAt(%d) = %#x after growth", i+1, uint64(got))
		}
	}
}
