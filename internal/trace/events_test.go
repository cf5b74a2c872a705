package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// naiveEncode is the reference encoder: a direct transcription of the
// format spec in events.go's package comment, written with none of the
// production code's structure. The property tests hold the production
// encoder to byte-equality with this one, so a framing bug would have to
// appear identically in two independent transcriptions to slip through.
func naiveEncode(t *EventTrace) []byte {
	var b bytes.Buffer
	b.WriteString("punoevt/1")
	uv := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	uv(uint64(len(t.Workload)))
	b.WriteString(t.Workload)
	uv(uint64(len(t.Scheme)))
	b.WriteString(t.Scheme)
	uv(t.Seed)
	uv(uint64(len(t.Lines)))
	for _, l := range t.Lines {
		uv(uint64(l) >> 6)
	}
	uv(uint64(len(t.Events)))
	prev := uint64(0)
	for _, e := range t.Events {
		uv(uint64(e.Cycle) - prev)
		b.WriteByte(byte(e.Kind))
		uv(uint64(e.Node))
		uv(uint64(e.Line))
		uv(e.Arg)
		prev = uint64(e.Cycle)
	}
	h := fnv.New32a()
	h.Write(b.Bytes())
	return h.Sum(b.Bytes())
}

// randomTrace builds a valid random event trace: monotone non-decreasing
// cycles, kinds in range, line ids within the line table.
func randomTrace(rng *rand.Rand, nEvents int) *EventTrace {
	nLines := rng.Intn(20)
	t := &EventTrace{
		Workload: []string{"", "intruder", "a/b with spaces", "μworkload"}[rng.Intn(4)],
		Scheme:   []string{"Baseline", "PUNO", ""}[rng.Intn(3)],
		Seed:     rng.Uint64(),
		Lines:    make([]mem.Line, nLines),
	}
	for i := range t.Lines {
		t.Lines[i] = mem.Line(uint64(rng.Int63n(1<<40)) << 6)
	}
	cycle := sim.Time(0)
	for i := 0; i < nEvents; i++ {
		cycle += sim.Time(rng.Intn(1000))
		t.Events = append(t.Events, probe.Event{
			Cycle: cycle,
			Arg:   rng.Uint64(),
			Line:  mem.LineID(rng.Intn(nLines + 1)),
			Node:  int16(rng.Intn(64)),
			Kind:  probe.Kind(1 + rng.Intn(int(probe.KindMax)-1)),
		})
	}
	return t
}

func TestEncodeMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		tr := randomTrace(rng, rng.Intn(200))
		var got bytes.Buffer
		if err := tr.Save(&got); err != nil {
			t.Fatalf("case %d: Save: %v", i, err)
		}
		want := naiveEncode(tr)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("case %d: production encoding differs from reference (%d vs %d bytes)",
				i, got.Len(), len(want))
		}
	}
}

func TestEventRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		tr := randomTrace(rng, rng.Intn(300))
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("case %d: Save: %v", i, err)
		}
		got, err := LoadEvents(&buf)
		if err != nil {
			t.Fatalf("case %d: LoadEvents: %v", i, err)
		}
		if got.Workload != tr.Workload || got.Scheme != tr.Scheme || got.Seed != tr.Seed {
			t.Fatalf("case %d: metadata mismatch: %+v vs %+v", i, got, tr)
		}
		if !reflect.DeepEqual(noEmpty(got.Lines), noEmpty(tr.Lines)) {
			t.Fatalf("case %d: line table mismatch", i)
		}
		if !reflect.DeepEqual(noEmptyEv(got.Events), noEmptyEv(tr.Events)) {
			t.Fatalf("case %d: events mismatch:\n got %v\nwant %v", i, got.Events, tr.Events)
		}
	}
}

// noEmpty/noEmptyEv normalize nil vs empty slices for DeepEqual.
func noEmpty(s []mem.Line) []mem.Line {
	if len(s) == 0 {
		return nil
	}
	return s
}

func noEmptyEv(s []probe.Event) []probe.Event {
	if len(s) == 0 {
		return nil
	}
	return s
}

// savedTrace is the encoding of one random valid trace.
func savedTrace(t *testing.T, seed int64, nEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := randomTrace(rand.New(rand.NewSource(seed)), nEvents).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeErr(raw []byte) error {
	_, err := DecodeEvents(raw)
	return err
}

// Each test hands one fixture to the shared harness, which applies every
// form of damage to it: each truncation point including into the checksum,
// each byte flipped, trailing bytes with a stale and with a valid checksum,
// wrong magic, garbage, empty input, and a 2^28 count written over every
// offset. The fixtures differ in length: 50, 30, 5 and 0 events.
func TestTruncationDetected(t *testing.T) {
	wiretest.RejectsDamage(t, savedTrace(t, 9, 50), decodeErr)
}

func TestCorruptionDetected(t *testing.T) {
	wiretest.RejectsDamage(t, savedTrace(t, 10, 30), decodeErr)
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	wiretest.RejectsDamage(t, savedTrace(t, 11, 5), decodeErr)
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	wiretest.RejectsDamage(t, savedTrace(t, 12, 0), decodeErr)
}

// A checksum-valid 21-byte file claiming 2^28 lines: the claim must be
// refused against the bytes that are left, not allocated and walked.
func TestDecodeRejectsCountBomb(t *testing.T) {
	b := append([]byte(evtMagic), 0, 0, 0) // empty workload, empty scheme, seed 0
	b = wire.Seal(binary.AppendUvarint(b, 1<<28), 0)
	if len(b) != 21 {
		t.Fatalf("bomb is %d bytes, want 21", len(b))
	}
	wiretest.RejectsBomb(t, b, decodeErr)
}

// Values the in-memory types cannot hold would decode to a trace that
// re-encodes to different bytes, or not at all; the decoder refuses them.
func TestDecodeRejectsUnrepresentable(t *testing.T) {
	frame := func(fields ...uint64) []byte {
		b := []byte(evtMagic)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return wire.Seal(b, 0)
	}
	const send = uint64(probe.KindSend) // a kind byte and a one-byte uvarint look the same
	for name, raw := range map[string][]byte{
		"line beyond the address space": frame(0, 0, 0, 1, 1<<58, 0),
		"cycle deltas that wrap":        frame(0, 0, 0, 0, 2, 1<<64-1, send, 0, 0, 0, 1, send, 0, 0, 0),
	} {
		if err := decodeErr(raw); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if err := decodeErr(frame(0, 0, 0, 1, 1<<58-1, 1, 1<<64-1, send, 0, 1, 0)); err != nil {
		t.Errorf("largest representable line and cycle refused: %v", err)
	}
}

func TestEncoderRejectsInvalidStreams(t *testing.T) {
	base := func() *EventTrace {
		return &EventTrace{
			Workload: "w", Scheme: "s",
			Lines: []mem.Line{0x40},
			Events: []probe.Event{
				{Cycle: 10, Kind: probe.KindSend, Node: 1, Line: 1},
				{Cycle: 20, Kind: probe.KindTxBegin, Node: 2},
			},
		}
	}
	cases := []struct {
		name string
		mut  func(*EventTrace)
	}{
		{"non-monotone cycles", func(t *EventTrace) { t.Events[1].Cycle = 5 }},
		{"zero kind", func(t *EventTrace) { t.Events[0].Kind = 0 }},
		{"kind out of range", func(t *EventTrace) { t.Events[0].Kind = probe.KindMax }},
		{"negative node", func(t *EventTrace) { t.Events[0].Node = -1 }},
		{"negative line id", func(t *EventTrace) { t.Events[0].Line = -3 }},
		{"unaligned line", func(t *EventTrace) { t.Lines[0] = 0x41 }},
	}
	for _, c := range cases {
		tr := base()
		c.mut(tr)
		if err := tr.Save(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: Save succeeded, want error", c.name)
		}
	}
	if err := base().Save(&bytes.Buffer{}); err != nil {
		t.Fatalf("unmutated base trace must encode: %v", err)
	}
}

func TestLineOf(t *testing.T) {
	tr := &EventTrace{Lines: []mem.Line{0x40, 0x80}}
	if got := tr.LineOf(0); got != "-" {
		t.Errorf("LineOf(0) = %q", got)
	}
	if got := tr.LineOf(2); got != "0x80" {
		t.Errorf("LineOf(2) = %q", got)
	}
	if got := tr.LineOf(9); got != "line#9" {
		t.Errorf("LineOf(9) = %q", got)
	}
}

// FuzzDecodeEvents certifies that the decoder never panics and that it
// accepts only the canonical rendering: whatever decodes re-encodes to the
// bytes it came from. A fuzzer cannot guess a checksum, so each input is
// tried as it stands and as a body sealed under the magic, which lets
// mutations through to the field decoder.
func FuzzDecodeEvents(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 8; i++ {
		tr := randomTrace(rng, rng.Intn(40))
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[len(evtMagic) : buf.Len()-4])
	}
	f.Add([]byte(evtMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, wire.Seal(append([]byte(evtMagic), data...), 0)} {
			tr, err := DecodeEvents(raw)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil {
				t.Fatalf("accepted trace failed to re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), raw) {
				t.Fatalf("accepted trace is not canonical:\n  in %x\n out %x", raw, buf.Bytes())
			}
		}
	})
}
