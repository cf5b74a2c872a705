package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stamp"
)

func ev(cycle sim.Time, kind probe.Kind, node int16, line mem.LineID, arg uint64) probe.Event {
	return probe.Event{Cycle: cycle, Kind: kind, Node: node, Line: line, Arg: arg}
}

func TestFirstDivergence(t *testing.T) {
	a := &EventTrace{Scheme: "A", Events: []probe.Event{
		ev(1, probe.KindSend, 0, 1, 5),
		ev(2, probe.KindTxBegin, 1, 0, 7),
		ev(3, probe.KindConflict, 2, 1, 9),
	}}
	same := &EventTrace{Scheme: "B", Events: append([]probe.Event(nil), a.Events...)}
	if d, ok := FirstDivergence(a, same); ok {
		t.Fatalf("identical streams reported divergent at %d", d.Index)
	}

	mid := &EventTrace{Scheme: "B", Events: append([]probe.Event(nil), a.Events...)}
	mid.Events[1].Arg = 8
	d, ok := FirstDivergence(a, mid)
	if !ok || d.Index != 1 {
		t.Fatalf("mid-stream divergence: got ok=%v index=%d, want ok=true index=1", ok, d.Index)
	}
	if d.A == nil || d.B == nil || d.A.Arg != 7 || d.B.Arg != 8 {
		t.Fatalf("divergence events wrong: A=%+v B=%+v", d.A, d.B)
	}

	prefix := &EventTrace{Scheme: "B", Events: a.Events[:2]}
	d, ok = FirstDivergence(a, prefix)
	if !ok || d.Index != 2 || d.A == nil || d.B != nil {
		t.Fatalf("prefix divergence: got ok=%v %+v", ok, d)
	}
	d, ok = FirstDivergence(prefix, a)
	if !ok || d.Index != 2 || d.A != nil || d.B == nil {
		t.Fatalf("reverse prefix divergence: got ok=%v %+v", ok, d)
	}
}

func TestFormatDivergence(t *testing.T) {
	a := &EventTrace{Scheme: "Baseline", Lines: []mem.Line{0x40},
		Events: []probe.Event{ev(10, probe.KindSend, 3, 1, probe.PackSend(uint8(coherence.MsgGETX), 7, 3, 12))}}
	b := &EventTrace{Scheme: "PUNO", Lines: []mem.Line{0x80},
		Events: []probe.Event{ev(12, probe.KindSend, 3, 1, probe.PackSend(uint8(coherence.MsgGETX), 7, 3, 12))}}
	d, ok := FirstDivergence(a, b)
	if !ok {
		t.Fatal("expected divergence")
	}
	line := FormatDivergence(a, b, d)
	for _, want := range []string{
		"diverged at event #0", "A[Baseline]", "B[PUNO]",
		"cycle=10", "cycle=12", "line=0x40", "line=0x80", "GETX", "dst=7",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("diagnosis %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "\n") {
		t.Errorf("diagnosis is not one line: %q", line)
	}

	// Prefix ending renders the side's length instead of an event.
	short := &EventTrace{Scheme: "PUNO", Events: nil}
	d, _ = FirstDivergence(a, short)
	line = FormatDivergence(a, short, d)
	if !strings.Contains(line, "B[PUNO] ended after 0 events") {
		t.Errorf("prefix diagnosis %q missing ended-after clause", line)
	}
}

func TestFormatEventPerKind(t *testing.T) {
	tr := &EventTrace{Lines: []mem.Line{0x40}}
	cases := []struct {
		e    probe.Event
		want []string
	}{
		{ev(1, probe.KindSend, 0, 1, probe.PackSend(uint8(coherence.MsgWakeup), 5, 5, 0)),
			[]string{"send", "Wakeup", "dst=5"}},
		{ev(1, probe.KindTxBegin, 0, 0, probe.PackTx(3, 2, false)), []string{"tx-begin", "static=3", "attempt=2"}},
		{ev(1, probe.KindTxCommit, 0, 0, probe.PackTx(3, 2, false)), []string{"tx-commit", "static=3"}},
		{ev(1, probe.KindTxAbort, 0, 0, probe.PackTx(3, 2, true)), []string{"tx-abort", "overflow"}},
		{ev(1, probe.KindConflict, 0, 1, probe.PackTx(3, 2, true)), []string{"conflict", "vs write", "line=0x40"}},
		{ev(1, probe.KindConflict, 0, 1, probe.PackTx(3, 2, false)), []string{"vs read"}},
		{ev(1, probe.KindDirUnicast, 0, 1, probe.PackDir(4, 2, 9)), []string{"dir-unicast", "dest=4", "req=2", "id=9"}},
		{ev(1, probe.KindDirMulticast, 0, 1, probe.PackDir(3, 2, 9)), []string{"dir-multicast", "targets=3"}},
		{ev(1, probe.KindDirBusyNack, 0, 1, probe.PackDir(0, 2, 9)), []string{"dir-busy-nack", "req=2"}},
		{ev(1, probe.Kind(200), 0, 0, 0xbeef), []string{"arg=0xbeef"}},
	}
	for _, c := range cases {
		got := FormatEvent(tr.LineOf(c.e.Line), c.e)
		for _, want := range c.want {
			if !strings.Contains(got, want) {
				t.Errorf("FormatEvent(%v) = %q, missing %q", c.e.Kind, got, want)
			}
		}
	}
}

func testCfg(scheme machine.Scheme) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Scheme = scheme
	return cfg
}

func testWL(t *testing.T) machine.Workload {
	t.Helper()
	wl, err := stamp.ByName("intruder")
	if err != nil {
		t.Fatal(err)
	}
	return wl.WithTxPerCPU(2)
}

// Capturing events must not change the simulated trajectory: results with
// and without a sink encode to the same artifact bytes, and two captures are
// event-identical.
func TestCaptureIsTrajectoryNeutral(t *testing.T) {
	wl := testWL(t)
	cfg := testCfg(machine.SchemePUNO)

	plain, err := machine.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	res1, et1, err := CaptureEvents(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res2, et2, err := CaptureEvents(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := machine.EncodeResult(resPlain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := machine.EncodeResult(res1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tracing changed the run's artifact: traced {cyc=%d ab=%d com=%d} vs plain {cyc=%d ab=%d com=%d}",
			res1.Cycles, res1.Aborts, res1.Commits, resPlain.Cycles, resPlain.Aborts, resPlain.Commits)
	}
	if len(et1.Events) == 0 {
		t.Fatal("capture recorded no events")
	}
	if d, ok := FirstDivergence(et1, et2); ok {
		t.Fatalf("two identical captures diverged: %s", FormatDivergence(et1, et2, d))
	}
	if res1.Cycles != res2.Cycles {
		t.Fatalf("capture determinism: %d vs %d cycles", res1.Cycles, res2.Cycles)
	}
}

func TestCaptureEventsErrors(t *testing.T) {
	wl := testWL(t)

	bad := testCfg(machine.SchemePUNO)
	bad.Nodes = 15 // does not match the 4x4 mesh
	if _, _, err := CaptureEvents(bad, wl); err == nil {
		t.Fatal("capture of an invalid config did not error")
	}

	hung := testCfg(machine.SchemePUNO)
	hung.MaxCycles = 10
	if _, _, err := CaptureEvents(hung, wl); err == nil {
		t.Fatal("capture of a hung run did not error")
	}
}

// Arena reuse must not leak a sink: a Reset to a config without one stops
// emission, and the trajectory stays byte-identical either way.
func TestResetClearsSink(t *testing.T) {
	wl := testWL(t)
	cfg := testCfg(machine.SchemeBaseline)
	var buf probe.Buffer
	cfgTraced := cfg
	cfgTraced.EventSink = &buf

	m, err := machine.New(cfgTraced, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	traced := buf.Len()
	if traced == 0 {
		t.Fatal("no events recorded on the traced run")
	}
	if err := m.Reset(cfg, wl); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != traced {
		t.Fatalf("sink leaked across Reset: %d events grew to %d", traced, buf.Len())
	}
}

// The flagship regression: re-introduce the wakeup-iteration-order bug
// shape behind its test hook and assert the differ pinpoints the first
// divergent event — a Wakeup send — instead of just "dumps differ". The
// workload makes every node hammer two shared lines so a committing
// PUNO-Push transaction holds wakeup subscriptions for both, which is
// exactly the state whose iteration order the hook reverses.
func TestDifferPinpointsInjectedDivergence(t *testing.T) {
	wl := stamp.NewProfile("wakeup-storm", true, 6, 0, stamp.Class{
		StaticID: 0, Weight: 1,
		RegionBase: mem.Line(0x10000), RegionLines: 2,
		ReadsMin: 2, ReadsMax: 2,
		WritesMin: 2, WritesMax: 2, WritesFromReads: true,
		HotLines: 2,
	})
	cfg := testCfg(machine.SchemePUNOPush)

	_, good, err := CaptureEvents(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	machine.TestHookReverseWakeups = true
	defer func() { machine.TestHookReverseWakeups = false }()
	_, bad, err := CaptureEvents(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := FirstDivergence(good, bad)
	if !ok {
		t.Fatal("reversed wakeup order produced an identical event stream; the injected bug is invisible to the differ")
	}
	if d.A == nil || d.B == nil {
		t.Fatalf("divergence should be an event mismatch, not a length mismatch: %+v", d)
	}
	if d.A.Kind != probe.KindSend {
		t.Fatalf("first divergent event is %v, want a send", d.A.Kind)
	}
	mt, _, _, _ := probe.UnpackSend(d.A.Arg)
	if coherence.MsgType(mt) != coherence.MsgWakeup {
		t.Fatalf("first divergent send is %v, want Wakeup", coherence.MsgType(mt))
	}
	line := FormatDivergence(good, bad, d)
	if !strings.Contains(line, "Wakeup") || !strings.Contains(line, "diverged at event #") {
		t.Fatalf("diagnosis %q does not name the Wakeup divergence", line)
	}
	t.Logf("diagnosis: %s", line)
}
