// The first-divergence differ: given two event traces, find the first
// event where the runs stopped agreeing and render it as a one-line
// diagnosis. Because the simulator is deterministic, the first divergent
// event *is* the root cause's first observable effect — everything after
// it is an avalanche — so one line replaces eyeballing two full dumps.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/probe"
)

// Divergence locates the first disagreement between two event streams.
// A and B are the two sides' events at Index; a nil side means that
// stream ended there (one run is a strict prefix of the other).
type Divergence struct {
	Index int
	A, B  *probe.Event
}

// FirstDivergence compares two traces event-by-event and returns the first
// index where they disagree. ok is false when the streams are identical
// (same events, same length) — metadata differences alone do not count.
func FirstDivergence(a, b *EventTrace) (d Divergence, ok bool) {
	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	for i := 0; i < n; i++ {
		if a.Events[i] != b.Events[i] {
			return Divergence{Index: i, A: &a.Events[i], B: &b.Events[i]}, true
		}
	}
	switch {
	case len(a.Events) > n:
		return Divergence{Index: n, A: &a.Events[n]}, true
	case len(b.Events) > n:
		return Divergence{Index: n, B: &b.Events[n]}, true
	}
	return Divergence{}, false
}

// FormatDivergence renders a divergence as the differ's one-line
// diagnosis: the event index, then each side's event (cycle, node, line,
// kind, decoded payload) rendered with its own line table.
func FormatDivergence(a, b *EventTrace, d Divergence) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "diverged at event #%d: ", d.Index)
	side := func(label string, t *EventTrace, e *probe.Event) {
		if e == nil {
			fmt.Fprintf(&sb, "%s[%s] ended after %d events", label, t.Scheme, len(t.Events))
			return
		}
		fmt.Fprintf(&sb, "%s[%s] %s", label, t.Scheme, FormatEvent(t.LineOf(e.Line), *e))
	}
	side("A", a, d.A)
	sb.WriteString(" | ")
	side("B", b, d.B)
	return sb.String()
}

// FormatEvent renders one event as "cycle=N node=N line=L kind payload",
// where line is e.Line already resolved by the caller: through a trace's
// table (EventTrace.LineOf) or, during a live run, the machine's interner.
func FormatEvent(line string, e probe.Event) string {
	return fmt.Sprintf("cycle=%d node=%d line=%s %s %s",
		e.Cycle, e.Node, line, e.Kind, formatArg(e))
}

// formatArg decodes the kind-specific packed payload.
func formatArg(e probe.Event) string {
	switch e.Kind {
	case probe.KindSend:
		mt, dst, req, id := probe.UnpackSend(e.Arg)
		return fmt.Sprintf("%v dst=%d req=%d id=%d", coherence.MsgType(mt), dst, req, id)
	case probe.KindTxBegin, probe.KindTxCommit:
		staticID, attempt, _ := probe.UnpackTx(e.Arg)
		return fmt.Sprintf("static=%d attempt=%d", staticID, attempt)
	case probe.KindTxAbort:
		staticID, attempt, overflow := probe.UnpackTx(e.Arg)
		s := fmt.Sprintf("static=%d attempt=%d", staticID, attempt)
		if overflow {
			s += " overflow"
		}
		return s
	case probe.KindConflict:
		staticID, attempt, isWrite := probe.UnpackTx(e.Arg)
		acc := "read"
		if isWrite {
			acc = "write"
		}
		return fmt.Sprintf("static=%d attempt=%d vs %s", staticID, attempt, acc)
	case probe.KindDirUnicast:
		dest, req, id := probe.UnpackDir(e.Arg)
		return fmt.Sprintf("dest=%d req=%d id=%d", dest, req, id)
	case probe.KindDirMulticast:
		n, req, id := probe.UnpackDir(e.Arg)
		return fmt.Sprintf("targets=%d req=%d id=%d", n, req, id)
	case probe.KindDirBusyNack:
		_, req, id := probe.UnpackDir(e.Arg)
		return fmt.Sprintf("req=%d id=%d", req, id)
	default:
		return fmt.Sprintf("arg=%#x", e.Arg)
	}
}

// CaptureEvents runs wl under cfg with an event sink installed and returns
// both the run's measurements and its full event trace. cfg.EventSink is
// overridden for the run. The serial engine interns lines in order of first
// appearance, so the trace's raw LineIDs are already in appearance order.
func CaptureEvents(cfg machine.Config, wl machine.Workload) (*machine.Result, *EventTrace, error) {
	var buf probe.Buffer
	cfg.EventSink = &buf
	m, err := machine.New(cfg, wl)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	evs := make([]probe.Event, buf.Len())
	copy(evs, buf.Events())
	t := &EventTrace{
		Workload: wl.Name(),
		Scheme:   cfg.Scheme.String(),
		Seed:     cfg.Seed,
		Lines:    m.LineTable(),
		Events:   evs,
	}
	return res, t, nil
}
