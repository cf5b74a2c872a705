package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestLineOfAligns(t *testing.T) {
	cases := []struct {
		a    Addr
		want Line
	}{
		{0, 0},
		{8, 0},
		{63, 0},
		{64, 64},
		{127, 64},
		{0x1000 + 40, 0x1000},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.a, got, c.want)
		}
	}
}

func TestWordIndex(t *testing.T) {
	for i := 0; i < WordsPerLine; i++ {
		a := Addr(0x240 + i*WordBytes)
		if got := WordIndex(a); got != i {
			t.Errorf("WordIndex(%#x) = %d, want %d", a, got, i)
		}
	}
}

func TestLineWordRoundTrip(t *testing.T) {
	f := func(raw uint32, idx uint8) bool {
		l := LineOf(Addr(raw))
		i := int(idx) % WordsPerLine
		a := l.Word(i)
		return LineOf(a) == l && WordIndex(a) == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineWordPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Word(8) did not panic")
		}
	}()
	Line(0).Word(WordsPerLine)
}

func TestHomeMapRange(t *testing.T) {
	h := NewHomeMap(16)
	for i := 0; i < 10000; i++ {
		l := Line(uint64(i) * LineBytes)
		home := h.Home(l)
		if home < 0 || home >= 16 {
			t.Fatalf("Home(%v) = %d out of range", l, home)
		}
	}
}

func TestHomeMapInterleavesConsecutiveLines(t *testing.T) {
	h := NewHomeMap(16)
	for i := 0; i < 64; i++ {
		l := Line(uint64(i) * LineBytes)
		if got := h.Home(l); got != i%16 {
			t.Errorf("Home(line %d) = %d, want %d", i, got, i%16)
		}
	}
}

func TestHomeMapBalance(t *testing.T) {
	h := NewHomeMap(16)
	counts := make([]int, 16)
	const n = 16 * 1000
	for i := 0; i < n; i++ {
		counts[h.Home(Line(uint64(i)*LineBytes))]++
	}
	for b, c := range counts {
		if c != 1000 {
			t.Errorf("bank %d got %d lines, want 1000", b, c)
		}
	}
}

func TestHomeMapPanicsOnZeroBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHomeMap(0) did not panic")
		}
	}()
	NewHomeMap(0)
}

func TestBackingZeroDefault(t *testing.T) {
	b := NewBacking()
	if v := b.LoadWord(0x998); v != 0 {
		t.Fatalf("untouched word = %d, want 0", v)
	}
	if d := b.Load(0x40); d != (LineData{}) {
		t.Fatalf("untouched line = %v, want zeros", d)
	}
}

func TestBackingStoreLoadWord(t *testing.T) {
	b := NewBacking()
	b.StoreWord(0x1008, 77)
	if v := b.LoadWord(0x1008); v != 77 {
		t.Fatalf("LoadWord = %d, want 77", v)
	}
	// Neighbouring word in the same line unaffected.
	if v := b.LoadWord(0x1000); v != 0 {
		t.Fatalf("neighbour word = %d, want 0", v)
	}
}

func TestBackingLineStoreLoad(t *testing.T) {
	b := NewBacking()
	var d LineData
	for i := range d {
		d[i] = uint64(i * 11)
	}
	b.Store(0x2000, d)
	got := b.Load(0x2000)
	if got != d {
		t.Fatalf("Load = %v, want %v", got, d)
	}
	// Load returns a copy: mutating it must not affect the backing.
	got[0] = 999
	if b.Load(0x2000)[0] != 0 {
		t.Fatal("Load returned aliased storage")
	}
}

func TestBackingWordLineConsistency(t *testing.T) {
	f := func(lineRaw uint32, idx uint8, v uint64) bool {
		b := NewBacking()
		l := LineOf(Addr(lineRaw))
		i := int(idx) % WordsPerLine
		b.StoreWord(l.Word(i), v)
		return b.Load(l)[i] == v && b.LoadWord(l.Word(i)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackingTouched(t *testing.T) {
	b := NewBacking()
	b.StoreWord(0, 1)
	b.StoreWord(8, 2) // same line
	b.StoreWord(64, 3)
	if b.Touched() != 2 {
		t.Fatalf("Touched = %d, want 2", b.Touched())
	}
}

// TestExtend covers Extend's three paths: a no-op when the slice is already
// long enough, zeros re-exposed from retained capacity after a truncate,
// and the reallocation to a zeroed array of capacity 2n.
func TestExtend(t *testing.T) {
	s := []int{1, 2, 3}
	for _, n := range []int{0, 2, 3} {
		if got := Extend(s, n); len(got) != 3 || &got[0] != &s[0] || got[2] != 3 {
			t.Fatalf("Extend(len 3, %d) = %v, want the slice unchanged", n, got)
		}
	}

	buf := make([]int, 8)
	for i := range buf {
		buf[i] = i + 1
	}
	got := Extend(buf[:2], 6)
	if len(got) != 6 || cap(got) != 8 || &got[0] != &buf[0] {
		t.Fatalf("within capacity: len %d cap %d, moved %v; want len 6 cap 8 in place", len(got), cap(got), &got[0] != &buf[0])
	}
	if want := []int{1, 2, 0, 0, 0, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("within capacity: %v, want %v (stale entries re-exposed)", got, want)
	}
	if buf[6] != 7 {
		t.Fatalf("Extend cleared past n: buf[6] = %d", buf[6])
	}

	got = Extend(buf[:3], 10)
	if len(got) != 10 || cap(got) != 20 || &got[0] == &buf[0] {
		t.Fatalf("past capacity: len %d cap %d, moved %v; want a new len 10 cap 20 array", len(got), cap(got), &got[0] != &buf[0])
	}
	if want := []int{1, 2, 0, 0, 0, 0, 0, 0, 0, 0}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("past capacity: %v, want %v", got, want)
	}
	if full := got[:cap(got)]; fmt.Sprint(full[10:]) != fmt.Sprint(make([]int, 10)) {
		t.Fatalf("past capacity: headroom %v not zero", full[10:])
	}
}
