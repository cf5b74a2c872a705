// Package trace is the event-trace layer: capture of a run's probe.Event
// stream (CaptureEvents), its compact binary encoding (punoevt/1, this
// file) and the first-divergence differ (diff.go).
//
// An EventTrace pins down what a run *did* — every coherence message,
// transaction lifecycle edge, conflict, and directory decision, in emission
// order. Two runs with the same (config, workload, seed) produce
// byte-identical event traces, which is what makes the first-divergence
// differ a sharper tool than comparing rendered dumps.
//
// Body layout of a punoevt/1 frame (DESIGN.md "Binary formats" has the
// frame and the count rule; everything is a uvarint unless noted):
//
//	string  workload, scheme
//	        seed
//	count N, N × line>>6                 (lines are 64-byte aligned)
//	count M, M × cycle delta             (vs previous event; ≥ 0)
//	             byte kind               (0 < kind < probe.KindMax)
//	             node
//	             line id                 (index into the line table; 0 = none)
//	             arg
//
// Cycles are engine time, which is monotone non-decreasing across the
// stream, so deltas are small and the encoder rejects any stream that
// violates monotonicity rather than silently wrapping.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/wire"
)

// EventTrace is one run's event stream plus the metadata needed to render
// and compare it: which workload/scheme/seed produced it, and the line
// table mapping the events' dense LineIDs back to addresses. Each trace
// carries its own line table because interning is first-touch: two runs
// that diverge also intern lines in different orders, so a shared table
// would mis-render one side.
type EventTrace struct {
	Workload string
	Scheme   string
	Seed     uint64
	Lines    []mem.Line
	Events   []probe.Event
}

// LineOf renders the line behind a trace-local LineID ("-" when the event
// carries no line, "line#N" when the ID is outside the table).
func (t *EventTrace) LineOf(id mem.LineID) string {
	if id == 0 {
		return "-"
	}
	if int(id) > len(t.Lines) {
		return fmt.Sprintf("line#%d", id)
	}
	return t.Lines[id-1].String()
}

// Normalized returns a copy of the trace with LineIDs renumbered into
// first-appearance order over the event stream and the line table pruned to
// referenced lines. A serial run interns lines in emission order, so
// Normalized is the identity there; a sharded run interleaves shards' first
// touches nondeterministically, so its raw IDs are not reproducible — but
// its *event stream* is bit-deterministic, and renumbering by stream order
// erases the only nondeterministic residue. Sharded captures are normalized
// before they are compared or serialized.
func (t *EventTrace) Normalized() *EventTrace {
	n := &EventTrace{
		Workload: t.Workload,
		Scheme:   t.Scheme,
		Seed:     t.Seed,
		Lines:    make([]mem.Line, 0, len(t.Lines)),
		Events:   make([]probe.Event, len(t.Events)),
	}
	remap := make([]mem.LineID, len(t.Lines)+1)
	for i, e := range t.Events {
		if e.Line > 0 && int(e.Line) <= len(t.Lines) {
			if remap[e.Line] == 0 {
				n.Lines = append(n.Lines, t.Lines[e.Line-1])
				remap[e.Line] = mem.LineID(len(n.Lines))
			}
			e.Line = remap[e.Line]
		}
		n.Events[i] = e
	}
	return n
}

// evtMagic versions the binary encoding.
const evtMagic = "punoevt/1"

// Save writes the trace in the binary event format.
func (t *EventTrace) Save(w io.Writer) error {
	buf, err := t.encode(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// encode appends the full encoding (magic through checksum) to dst.
func (t *EventTrace) encode(dst []byte) ([]byte, error) {
	b := append(dst, evtMagic...)
	b = wire.AppendString(b, t.Workload)
	b = wire.AppendString(b, t.Scheme)
	b = binary.AppendUvarint(b, t.Seed)
	b = binary.AppendUvarint(b, uint64(len(t.Lines)))
	for _, l := range t.Lines {
		if uint64(l)&(mem.LineBytes-1) != 0 {
			return nil, fmt.Errorf("trace: unaligned line %v in line table", l)
		}
		b = binary.AppendUvarint(b, uint64(l)>>6)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Events)))
	prev := sim.Time(0)
	for i, e := range t.Events {
		if e.Cycle < prev {
			return nil, fmt.Errorf("trace: event %d cycle %d precedes event %d cycle %d (stream not monotone)",
				i, e.Cycle, i-1, prev)
		}
		if e.Kind == 0 || e.Kind >= probe.KindMax {
			return nil, fmt.Errorf("trace: event %d has invalid kind %d", i, e.Kind)
		}
		if e.Node < 0 {
			return nil, fmt.Errorf("trace: event %d has negative node %d", i, e.Node)
		}
		if e.Line < 0 {
			return nil, fmt.Errorf("trace: event %d has negative line id %d", i, e.Line)
		}
		b = binary.AppendUvarint(b, uint64(e.Cycle-prev))
		b = append(b, byte(e.Kind))
		b = binary.AppendUvarint(b, uint64(e.Node))
		b = binary.AppendUvarint(b, uint64(e.Line))
		b = binary.AppendUvarint(b, e.Arg)
		prev = e.Cycle
	}
	return wire.Seal(b, len(dst)), nil
}

// LoadEvents reads a trace written by Save. It reads the stream to EOF and
// verifies the trailing checksum before decoding, so truncated and
// corrupted files fail loudly instead of yielding a shortened stream.
func LoadEvents(r io.Reader) (*EventTrace, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading event trace: %w", err)
	}
	return DecodeEvents(raw)
}

// DecodeEvents decodes one complete binary event trace.
func DecodeEvents(raw []byte) (*EventTrace, error) {
	d, err := wire.Open(evtMagic, "trace: event trace", raw)
	if err != nil {
		return nil, err
	}
	t := &EventTrace{}
	t.Workload = d.String("workload")
	t.Scheme = d.String("scheme")
	t.Seed = d.Uvarint("seed")
	if n := d.Count("line count", 1); n > 0 {
		t.Lines = make([]mem.Line, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			l := d.Uvarint("line")
			if l > math.MaxUint64>>6 {
				return nil, fmt.Errorf("trace: line %d (%#x) is beyond the address space", i, l)
			}
			t.Lines[i] = mem.Line(l << 6)
		}
	}
	if n := d.Count("event count", 5); n > 0 {
		t.Events = make([]probe.Event, n)
		cycle := sim.Time(0)
		for i := range t.Events {
			delta := sim.Time(d.Uvarint("cycle delta"))
			kind := probe.Kind(d.Byte("kind"))
			node := d.Uvarint("node")
			lid := d.Uvarint("line id")
			arg := d.Uvarint("arg")
			if d.Err() != nil {
				break
			}
			if cycle+delta < cycle {
				return nil, fmt.Errorf("trace: event %d cycle delta %d overflows", i, delta)
			}
			cycle += delta
			if kind == 0 || kind >= probe.KindMax {
				return nil, fmt.Errorf("trace: event %d has invalid kind %d", i, kind)
			}
			if node > 1<<15-1 {
				return nil, fmt.Errorf("trace: event %d has implausible node %d", i, node)
			}
			if lid > uint64(len(t.Lines)) {
				return nil, fmt.Errorf("trace: event %d line id %d outside line table (%d lines)", i, lid, len(t.Lines))
			}
			t.Events[i] = probe.Event{
				Cycle: cycle, Arg: arg, Line: mem.LineID(lid), Node: int16(node), Kind: kind,
			}
		}
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	return t, nil
}
