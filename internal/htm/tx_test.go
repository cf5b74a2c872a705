package htm

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
)

func line(i int) mem.Line { return mem.Line(uint64(i) * mem.LineBytes) }

func TestOlderTotalOrder(t *testing.T) {
	if !Older(5, 0, 10, 1) {
		t.Fatal("older timestamp lost")
	}
	if Older(10, 0, 5, 1) {
		t.Fatal("younger timestamp won")
	}
	// Tie: lower node wins.
	if !Older(7, 2, 7, 3) || Older(7, 3, 7, 2) {
		t.Fatal("tie-break by node id wrong")
	}
}

func TestNoPriorityAlwaysLoses(t *testing.T) {
	if Older(NoPriority, 0, 100, 1) {
		t.Fatal("NoPriority won against a transaction")
	}
	if !Older(100, 1, NoPriority, 0) {
		t.Fatal("transaction lost against NoPriority")
	}
}

func TestTxLifecycle(t *testing.T) {
	tx := NewTx(3)
	if tx.Status != StatusIdle {
		t.Fatal("new tx not idle")
	}
	tx.Begin(1, 100, false)
	if !tx.Running() || tx.Prio != 100 || tx.Attempts != 1 {
		t.Fatalf("after Begin: %+v", tx)
	}
	cost := tx.Commit(DefaultCosts())
	if cost != DefaultCosts().CommitCycles || tx.Status != StatusCommitted {
		t.Fatalf("commit cost=%d status=%v", cost, tx.Status)
	}
	tx.Reset()
	if tx.Status != StatusIdle {
		t.Fatal("Reset did not return to idle")
	}
}

func TestRetryKeepsPriority(t *testing.T) {
	tx := NewTx(0)
	tx.Begin(1, 100, false)
	tx.StartAbort(DefaultCosts(), false)
	tx.FinishAbort()
	tx.Begin(1, 500, true)
	if tx.Prio != 100 {
		t.Fatalf("retry priority = %d, want 100 (retained)", tx.Prio)
	}
	if tx.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", tx.Attempts)
	}
}

func TestFreshBeginResetsPriority(t *testing.T) {
	tx := NewTx(0)
	tx.Begin(1, 100, false)
	tx.Commit(DefaultCosts())
	tx.Reset()
	tx.Begin(2, 900, false)
	if tx.Prio != 900 || tx.Attempts != 1 {
		t.Fatalf("fresh begin prio=%d attempts=%d", tx.Prio, tx.Attempts)
	}
}

func TestSetsAndConflicts(t *testing.T) {
	tx := NewTx(0)
	tx.Begin(1, 10, false)
	tx.RecordRead(line(1))
	tx.RecordWrite(line(2), line(2).Word(0), 7)

	if !tx.InReadSet(line(1)) || tx.InReadSet(line(2)) {
		t.Fatal("read-set membership wrong")
	}
	if !tx.InWriteSet(line(2)) || tx.InWriteSet(line(1)) {
		t.Fatal("write-set membership wrong")
	}
	// Write request conflicts with read or write set.
	if !tx.ConflictsWith(line(1), true) || !tx.ConflictsWith(line(2), true) {
		t.Fatal("write request should conflict with both sets")
	}
	// Read request conflicts only with write set.
	if tx.ConflictsWith(line(1), false) {
		t.Fatal("read-read flagged as conflict")
	}
	if !tx.ConflictsWith(line(2), false) {
		t.Fatal("read-write not flagged")
	}
	// Unrelated line: no conflict.
	if tx.ConflictsWith(line(9), true) {
		t.Fatal("phantom conflict")
	}
}

func TestNoConflictWhenIdle(t *testing.T) {
	tx := NewTx(0)
	if tx.ConflictsWith(line(1), true) {
		t.Fatal("idle tx reported conflict")
	}
}

func TestUndoNewestFirst(t *testing.T) {
	tx := NewTx(0)
	tx.Begin(1, 10, false)
	a := line(1).Word(0)
	tx.RecordWrite(line(1), a, 100) // old value 100
	tx.RecordWrite(line(1), a, 200) // overwritten again; old now 200
	if n := tx.LogEntries(); n != 2 {
		t.Fatalf("undo length %d, want 2", n)
	}
	// Walked newest-first, as an abort applies them, the entries restore
	// 200 then 100, ending at the pre-transaction 100.
	var olds []uint64
	for i := tx.LogEntries() - 1; i >= 0; i-- {
		e := tx.UndoEntry(i)
		if e.Addr != a {
			t.Fatalf("entry %d addr %v, want %v", i, e.Addr, a)
		}
		olds = append(olds, e.Old)
	}
	if olds[0] != 200 || olds[1] != 100 {
		t.Fatalf("undo order wrong: %v", olds)
	}
}

func TestAbortLatencyScalesWithLog(t *testing.T) {
	c := DefaultCosts()
	tx := NewTx(0)
	tx.Begin(1, 10, false)
	short := tx.StartAbort(c, false)
	tx.FinishAbort()

	tx.Begin(1, 20, true)
	for i := 0; i < 10; i++ {
		tx.RecordWrite(line(i), line(i).Word(0), 0)
	}
	long := tx.StartAbort(c, false)
	if long != short+10*c.AbortPerEntry {
		t.Fatalf("abort latency %d, want %d", long, short+10*c.AbortPerEntry)
	}
	tx.FinishAbort()
}

func TestOverflowPenalty(t *testing.T) {
	c := DefaultCosts()
	tx := NewTx(0)
	tx.Begin(1, 10, false)
	base := tx.StartAbort(c, true)
	if base != c.AbortFixed+c.OverflowCycles {
		t.Fatalf("overflow abort latency %d", base)
	}
	tx.FinishAbort()
}

func TestFinishAbortClearsSets(t *testing.T) {
	tx := NewTx(0)
	tx.Begin(1, 10, false)
	tx.RecordRead(line(1))
	tx.RecordWrite(line(2), line(2).Word(0), 0)
	tx.StartAbort(DefaultCosts(), false)
	tx.FinishAbort()
	if tx.InReadSet(line(1)) || tx.InWriteSet(line(2)) {
		t.Fatal("sets survive abort")
	}
	if tx.ReadSetSize() != 0 || tx.WriteSetSize() != 0 || tx.LogEntries() != 0 {
		t.Fatal("counters nonzero after abort")
	}
}

func TestForEachSetLine(t *testing.T) {
	tx := NewTx(0)
	tx.Begin(1, 10, false)
	tx.RecordRead(line(1))
	tx.RecordRead(line(2))
	tx.RecordWrite(line(2), line(2).Word(0), 0) // read+write line
	tx.RecordWrite(line(3), line(3).Word(0), 0)
	seen := map[mem.Line]bool{}
	writes := 0
	tx.ForEachSetLine(func(l mem.Line, w bool) {
		if seen[l] {
			t.Fatalf("line %v visited twice", l)
		}
		seen[l] = true
		if w {
			writes++
		}
	})
	if len(seen) != 3 || writes != 2 {
		t.Fatalf("visited %d lines (%d writes), want 3 (2)", len(seen), writes)
	}
}

func TestMisuseaPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Tx)
	}{
		{"BeginWhileRunning", func(tx *Tx) { tx.Begin(1, 5, false); tx.Begin(2, 6, false) }},
		{"RecordReadIdle", func(tx *Tx) { tx.RecordRead(line(1)) }},
		{"RecordWriteIdle", func(tx *Tx) { tx.RecordWrite(line(1), line(1).Word(0), 0) }},
		{"CommitIdle", func(tx *Tx) { tx.Commit(DefaultCosts()) }},
		{"FinishAbortIdle", func(tx *Tx) { tx.FinishAbort() }},
		{"ResetWhileRunning", func(tx *Tx) { tx.Begin(1, 5, false); tx.Reset() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.fn(NewTx(0))
		})
	}
}

// Property: exact-set conflict detection agrees with a reference model.
func TestConflictMatchesReference(t *testing.T) {
	f := func(reads, writes []uint8, probe uint8, isWrite bool) bool {
		tx := NewTx(0)
		tx.Begin(1, 1, false)
		ref := map[mem.Line]struct{ r, w bool }{}
		for _, r := range reads {
			l := line(int(r) % 64)
			tx.RecordRead(l)
			e := ref[l]
			e.r = true
			ref[l] = e
		}
		for _, w := range writes {
			l := line(int(w) % 64)
			tx.RecordWrite(l, l.Word(0), 0)
			e := ref[l]
			e.w = true
			ref[l] = e
		}
		pl := line(int(probe) % 64)
		e := ref[pl]
		var want bool
		if isWrite {
			want = e.r || e.w
		} else {
			want = e.w
		}
		return tx.ConflictsWith(pl, isWrite) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusIdle: "idle", StatusRunning: "running", StatusAborting: "aborting",
		StatusCommitted: "committed", StatusAborted: "aborted",
	} {
		if s.String() != want {
			t.Errorf("Status %d = %q, want %q", s, s.String(), want)
		}
	}
}

// txScript runs one probed, signature-mode attempt over a fresh interner
// and returns everything it observed: the probe's events, the conflict
// answers, the set sizes, the log length and the abort latency.
func txScript(tx *Tx, bits int) (evs []probe.Event, obs []int) {
	var buf probe.Buffer
	var now sim.Time = 40
	tx.SetInterner(mem.NewInterner())
	tx.SetProbe(&buf, func() sim.Time { return now })
	tx.UseSignatures(bits)
	tx.Begin(7, now, false)
	for i := 0; i < 6; i++ {
		tx.RecordRead(line(3 * i))
	}
	tx.RecordWrite(line(5), line(5).Word(1), 9)
	for i := 0; i < 20; i++ {
		now++
		for _, w := range []bool{false, true} {
			if tx.ConflictsWith(line(i), w) {
				obs = append(obs, i)
			}
		}
	}
	obs = append(obs, tx.ReadSetSize(), tx.WriteSetSize(), tx.LogEntries(), int(tx.StartAbort(DefaultCosts(), false)))
	tx.FinishAbort()
	tx.SetProbe(nil, nil)
	return buf.Events(), obs
}

// TestHardResetMatchesNewTx: a context HardReset in the middle of a running
// signature-mode attempt — sets, log and filter full, a probe installed —
// behaves like NewTx from then on: same fields, no membership left over
// from the exact sets or the filter, and the same events and answers for
// the next attempt whether UseSignatures reuses its filter (same size) or
// replaces it (another size).
func TestHardResetMatchesNewTx(t *testing.T) {
	used := NewTx(2)
	var buf probe.Buffer
	used.SetProbe(&buf, func() sim.Time { return 9 })
	used.UseSignatures(256)
	used.Begin(3, 9, false)
	for i := 0; i < 300; i++ { // ids past 256 grow the set bitmaps
		used.RecordRead(line(i))
		used.RecordWrite(line(2*i), line(2*i).Word(0), uint64(i))
	}
	if !used.ConflictsWith(line(1), true) || buf.Len() != 2 {
		t.Fatalf("setup: conflict not seen or %d events, want begin+conflict", buf.Len())
	}
	filter := used.sig

	used.HardReset(5)
	fresh := NewTx(5)
	if used.Node != fresh.Node || used.StaticID != fresh.StaticID || used.Prio != fresh.Prio ||
		used.Status != fresh.Status || used.BeginCycle != fresh.BeginCycle || used.Attempts != fresh.Attempts ||
		used.useSignature || used.ReadSetSize() != 0 || used.WriteSetSize() != 0 || used.LogEntries() != 0 {
		t.Fatalf("HardReset left %+v, NewTx gives %+v", used, fresh)
	}
	for i := 0; i < 300; i++ {
		if used.InReadSet(line(i)) || used.InWriteSet(line(i)) {
			t.Fatalf("line %d still a member after HardReset", i)
		}
	}

	for _, bits := range []int{256, 512} {
		wantEvs, wantObs := txScript(NewTx(5), bits)
		gotEvs, gotObs := txScript(used, bits)
		if bits == 256 && used.sig != filter {
			t.Fatal("UseSignatures with the same size replaced the filter")
		}
		if bits == 512 && used.sig == filter {
			t.Fatal("UseSignatures with another size kept the old filter")
		}
		if fmt.Sprint(gotEvs) != fmt.Sprint(wantEvs) || fmt.Sprint(gotObs) != fmt.Sprint(wantObs) {
			t.Fatalf("%d-bit attempt after HardReset:\n got %v %v\nwant %v %v", bits, gotEvs, gotObs, wantEvs, wantObs)
		}
		if len(wantEvs) < 3 {
			t.Fatalf("%d-bit attempt emitted %v; the comparison is vacuous", bits, wantEvs)
		}
		used.HardReset(5)
	}
}
