package wire_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// A toy format exercising every Cursor method: a name, a list of
// numbers, one flag byte.
const toyMagic = "toy/1"

type toy struct {
	name string
	nums []uint64
	flag byte
}

func (v toy) encode(dst []byte) []byte {
	b := append(dst, toyMagic...)
	b = wire.AppendString(b, v.name)
	b = wire.AppendInt(b, len(v.nums))
	for _, n := range v.nums {
		b = binary.AppendUvarint(b, n)
	}
	b = append(b, v.flag)
	return wire.Seal(b, len(dst))
}

func decodeToy(raw []byte) (toy, error) {
	d, err := wire.Open(toyMagic, "toy frame", raw)
	if err != nil {
		return toy{}, err
	}
	var v toy
	v.name = d.String("name")
	if n := d.Count("nums", 1); n > 0 {
		v.nums = make([]uint64, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			v.nums[i] = d.Uvarint("num")
		}
	}
	v.flag = d.Byte("flag")
	return v, d.Close()
}

func TestRoundTripAndDamage(t *testing.T) {
	in := toy{name: "μ-name", nums: []uint64{0, 1, 127, 128, 1 << 40, 1<<64 - 1}, flag: 7}
	raw := in.encode(nil)
	out, err := decodeToy(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.name != in.name || out.flag != in.flag || len(out.nums) != len(in.nums) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	for i := range in.nums {
		if out.nums[i] != in.nums[i] {
			t.Fatalf("num %d: got %d, want %d", i, out.nums[i], in.nums[i])
		}
	}
	wiretest.RejectsDamage(t, raw, func(b []byte) error { _, err := decodeToy(b); return err })
}

// Seal covers b[from:] only, so a frame can be appended to bytes that are
// not part of it; the trailer is FNV-32a, big-endian, as hash/fnv computes it.
func TestSealFromOffset(t *testing.T) {
	framed := toy{name: "x"}.encode([]byte("prefix"))
	if !bytes.HasPrefix(framed, []byte("prefix"+toyMagic)) {
		t.Fatalf("encode did not append to dst: %q", framed)
	}
	frame := framed[len("prefix"):]
	h := fnv.New32a()
	h.Write(frame[:len(frame)-4])
	if want := h.Sum(nil); !bytes.Equal(frame[len(frame)-4:], want) {
		t.Fatalf("trailer %x, want FNV-32a %x", frame[len(frame)-4:], want)
	}
	if _, err := decodeToy(frame); err != nil {
		t.Fatal(err)
	}
}

func TestAppendHelpers(t *testing.T) {
	if got := wire.AppendBool(wire.AppendBool(nil, true), false); !bytes.Equal(got, []byte{1, 0}) {
		t.Errorf("AppendBool: %x", got)
	}
	if got := wire.AppendInt(nil, 300); !bytes.Equal(got, binary.AppendUvarint(nil, 300)) {
		t.Errorf("AppendInt(300): %x", got)
	}
	// Negative ints take the ten-byte two's-complement form (the key
	// encodings have always written them so).
	if got := wire.AppendInt(nil, -1); !bytes.Equal(got, binary.AppendUvarint(nil, 1<<64-1)) {
		t.Errorf("AppendInt(-1): %x", got)
	}
	if got := wire.AppendString([]byte{9}, "ab"); !bytes.Equal(got, []byte{9, 2, 'a', 'b'}) {
		t.Errorf("AppendString: %x", got)
	}
}

// body seals raw field bytes under the toy magic.
func body(fields ...byte) []byte {
	return wire.Seal(append([]byte(toyMagic), fields...), 0)
}

func TestCursorRefusals(t *testing.T) {
	for name, c := range map[string]struct {
		raw  []byte
		want string
	}{
		"count beyond the body":  {body(0, 200, 1, 2, 3), "claims 200"},
		"string beyond the body": {body(9, 'a'), "claims 9"},
		"padded uvarint":         {body(0, 1, 0x80, 0x00, 7), "malformed reading num"},
		"overlong uvarint":       {body(0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 7), "reading num"},
		"missing byte":           {body(0, 0), "reading flag"},
		"trailing bytes":         {body(0, 0, 7, 7), "1 trailing bytes"},
		"short":                  {[]byte("toy/1"), "truncated (5 bytes)"},
		"other magic":            {wire.Seal([]byte("yot/1\x00\x00\x07"), 0), "bad magic"},
		"stale checksum":         {append(body(0, 0, 7)[:8], 0, 0, 0, 0), "checksum mismatch"},
	} {
		_, err := decodeToy(c.raw)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "toy frame ") {
			t.Errorf("%s: error %v, want one naming the frame and containing %q", name, err, c.want)
		}
	}
}

// The first error sticks: later reads return zero values, consume nothing,
// and Close reports that first error rather than a later symptom.
func TestFirstErrorSticks(t *testing.T) {
	d, err := wire.Open(toyMagic, "toy frame", body(5, 'a', 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if s := d.String("name"); s != "" || d.Err() == nil {
		t.Fatalf("String past the body returned %q, err %v", s, d.Err())
	}
	first := d.Err()
	if d.Uvarint("u") != 0 || d.Byte("b") != 0 || d.Count("c", 1) != 0 || d.String("s") != "" {
		t.Fatal("reads after an error returned data")
	}
	if d.Close() != first {
		t.Fatalf("Close returned %v, want the first error %v", d.Close(), first)
	}
}
