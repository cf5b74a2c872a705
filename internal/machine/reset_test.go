package machine

import (
	"bytes"
	"reflect"
	"testing"
)

// resultSignature collapses a Result to the comparable fields a sweep
// consumes — every scalar counter plus the per-node and histogram views.
func resultSignature(r *Result) map[string]any {
	return map[string]any{
		"cycles":    r.Cycles,
		"commits":   r.Commits,
		"aborts":    r.Aborts,
		"causes":    r.AbortsByCause,
		"getx":      r.TxGETXIssued,
		"accesses":  r.TxGETXAccesses,
		"outcomes":  r.GETXOutcomes,
		"hist":      r.FalseAbortHist,
		"good":      r.GoodCycles,
		"disc":      r.DiscardedCycles,
		"net":       r.Net,
		"dirbusy":   r.DirBusyAll,
		"dirnacks":  r.DirBusyNacks,
		"unicasts":  r.DirUnicasts,
		"mispred":   r.Mispredictions,
		"nacks":     r.Nacks,
		"retries":   r.Retries,
		"backoff":   r.BackoffCycles,
		"restart":   r.RestartWaitCycle,
		"notified":  r.NotifiedBackoffs,
		"pnCommits": r.PerNodeCommits,
		"pnAborts":  r.PerNodeAborts,
	}
}

// TestResetMatchesNew is the arena-reuse certification: one machine Reset
// across a matrix of scheme/seed/workload combinations must reproduce,
// run for run, exactly what a freshly constructed machine produces — even
// when consecutive runs change scheme, seed, signature mode, and workload.
func TestResetMatchesNew(t *testing.T) {
	type spec struct {
		cfg Config
		wl  Workload
	}
	sigCfg := smallConfig(SchemeBaseline, 7)
	sigCfg.SignatureBits = 512
	specs := []spec{
		{smallConfig(SchemeBaseline, 1), counterWorkload{name: "a", txPerCPU: 6, counters: 4, incrsPer: 2, think: 10}},
		{smallConfig(SchemePUNO, 2), counterWorkload{name: "b", txPerCPU: 6, counters: 2, incrsPer: 2, think: 0}},
		{smallConfig(SchemePUNOPush, 3), counterWorkload{name: "c", txPerCPU: 5, counters: 2, incrsPer: 2, think: 0}},
		{smallConfig(SchemeBackoff, 4), disjointWorkload{txPerCPU: 8}},
		// Consecutive RMW-Pred and ATS runs reuse the nodes' predictors and
		// the scheduler's arrays, which must come back empty.
		{smallConfig(SchemeRMWPred, 5), counterWorkload{name: "e", txPerCPU: 6, counters: 4, incrsPer: 2, think: 5}},
		{smallConfig(SchemeRMWPred, 6), counterWorkload{name: "e", txPerCPU: 6, counters: 4, incrsPer: 2, think: 5}},
		{smallConfig(SchemeATS, 7), counterWorkload{name: "f", txPerCPU: 6, counters: 2, incrsPer: 2, think: 0}},
		{smallConfig(SchemeATS, 8), counterWorkload{name: "f", txPerCPU: 6, counters: 2, incrsPer: 2, think: 0}},
		{sigCfg, counterWorkload{name: "d", txPerCPU: 5, counters: 3, incrsPer: 2, think: 5}},
		{smallConfig(SchemeBaseline, 1), counterWorkload{name: "a", txPerCPU: 6, counters: 4, incrsPer: 2, think: 10}},
	}

	var arena *Machine
	for i, sp := range specs {
		fresh, err := New(sp.cfg, sp.wl)
		if err != nil {
			t.Fatalf("spec %d: New: %v", i, err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatalf("spec %d: fresh run: %v", i, err)
		}

		if arena == nil {
			arena, err = New(sp.cfg, sp.wl)
		} else {
			err = arena.Reset(sp.cfg, sp.wl)
		}
		if err != nil {
			t.Fatalf("spec %d: arena: %v", i, err)
		}
		got, err := arena.Run()
		if err != nil {
			t.Fatalf("spec %d: arena run: %v", i, err)
		}
		if !reflect.DeepEqual(resultSignature(got), resultSignature(want)) {
			t.Fatalf("spec %d (%s/%v/seed %d): arena result diverged from fresh machine\n got: %+v\nwant: %+v",
				i, sp.wl.Name(), sp.cfg.Scheme, sp.cfg.Seed, resultSignature(got), resultSignature(want))
		}
		// And byte for byte on the punores/3 artifact, which covers every
		// field the signature above leaves out.
		gotRaw, err := EncodeResult(got)
		if err != nil {
			t.Fatal(err)
		}
		wantRaw, err := EncodeResult(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("spec %d (%s/%v/seed %d): arena artifact differs from fresh machine's",
				i, sp.wl.Name(), sp.cfg.Scheme, sp.cfg.Seed)
		}
	}
}

// TestResetAfterFailedRun: a machine whose run hit MaxCycles (ErrHung) must
// reset cleanly and then behave like a fresh machine.
func TestResetAfterFailedRun(t *testing.T) {
	hang := smallConfig(SchemeBaseline, 5)
	hang.MaxCycles = 50 // far too few cycles: guaranteed ErrHung
	wl := counterWorkload{name: "hang", txPerCPU: 5, counters: 2, incrsPer: 2, think: 0}

	m, err := New(hang, wl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("expected the truncated run to fail")
	}

	good := smallConfig(SchemeBaseline, 5)
	if err := m.Reset(good, wl); err != nil {
		t.Fatal(err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatalf("run after reset-from-failure: %v", err)
	}
	_, want := runWorkload(t, good, wl)
	if got.Cycles != want.Cycles || got.Commits != want.Commits || got.Aborts != want.Aborts {
		t.Fatalf("post-failure reset diverged: %d/%d/%d vs fresh %d/%d/%d",
			got.Cycles, got.Commits, got.Aborts, want.Cycles, want.Commits, want.Aborts)
	}
}

// TestResetRejectsBadConfig: Reset validates like New and leaves the arena
// usable for the next (valid) spec.
func TestResetRejectsBadConfig(t *testing.T) {
	wl := disjointWorkload{txPerCPU: 3}
	m, err := New(smallConfig(SchemeBaseline, 1), wl)
	if err != nil {
		t.Fatal(err)
	}
	bad := smallConfig(SchemeBaseline, 1)
	bad.Nodes = 7 // does not match the 4x4 mesh
	if err := m.Reset(bad, wl); err == nil {
		t.Fatal("Reset accepted a node count that does not match the mesh")
	}
	if err := m.Reset(smallConfig(numSchemes, 1), wl); err == nil {
		t.Fatal("Reset accepted a scheme outside the scheme table")
	}
	if err := m.Reset(smallConfig(SchemeBaseline, 2), wl); err != nil {
		t.Fatalf("Reset after a rejected config: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run after recovering from a rejected config: %v", err)
	}
}

// TestResultClone: the clone is deep — mutating the original's maps and
// slices must not show through.
func TestResultClone(t *testing.T) {
	wl := counterWorkload{name: "clone", txPerCPU: 5, counters: 2, incrsPer: 2, think: 0}
	m, res := runWorkload(t, smallConfig(SchemeBaseline, 9), wl)
	c := res.Clone()
	if !reflect.DeepEqual(resultSignature(c), resultSignature(res)) {
		t.Fatal("clone differs from original")
	}
	// Reusing the machine overwrites the original in place; the clone must
	// be unaffected.
	sig := resultSignature(c)
	if err := m.Reset(smallConfig(SchemePUNO, 10), wl); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sig, resultSignature(c)) {
		t.Fatal("clone changed when its source machine was reused")
	}
}
