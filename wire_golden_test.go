package puno_test

// The binary formats are contracts with bytes already on disk: punores/3
// artifacts in punoserve cache directories, punoevt/1 traces handed to
// `punotrace diff`, and punocfg/5 + punowl/1 + punokey/1 deciding which
// cached artifact answers a request. The codec tests compare the encoders
// with themselves and with their decoders; this one pins the bytes, so a
// reordered or re-framed field fails here even when every round trip holds.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	puno "repro"
	"repro/internal/serve"
)

func TestGoldenWireFormats(t *testing.T) {
	var out strings.Builder
	pin := func(name string, b []byte) {
		fmt.Fprintf(&out, "%-20s %6d %x\n", name, len(b), sha256.Sum256(b))
	}
	save := func(tr *puno.EventTrace) []byte {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cfg := puno.DefaultConfig()
	cfg.Scheme = puno.SchemePUNO
	cfg.Seed = 7
	wl := puno.MustWorkload("intruder").WithTxPerCPU(6)
	res, events, err := puno.CaptureEvents(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FalseAbortHist) == 0 || len(events.Events) == 0 {
		t.Fatalf("golden point leaves a slice empty: %d hist buckets, %d events",
			len(res.FalseAbortHist), len(events.Events))
	}
	raw, err := puno.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	pin("point punores/3", raw)
	pin("point punoevt/1", save(events))
	canon, err := cfg.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	pin("point punocfg/5", canon)
	key, err := serve.BuildKey("v1", cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "%-20s %s\n", "point punokey/1", key)

	// One value of each type with every field distinct and every slice
	// non-empty, so two swapped fields cannot cancel out.
	syn := &puno.Result{
		Workload: "synthetic", Scheme: puno.SchemeATS, Cycles: 1 << 40, Commits: 3, Aborts: 5,
		TxGETXIssued: 9, TxGETXAccesses: 8,
		FalseAbortHist: []uint64{0, 2, 0, 1},
		GoodCycles:     100, DiscardedCycles: 200,
		DirTxGETXBusy: 14, DirTxGETXServices: 15, DirBusyAll: 16, DirBusyNacks: 17,
		DirUnicasts: 18, DirMulticastFwds: 19, Mispredictions: 20,
		Nacks: 21, Retries: 22, BackoffCycles: 23, RestartWaitCycle: 24, NotifiedBackoffs: 25,
		PerNodeCommits: []uint64{1, 0, 2},
		PerNodeAborts:  []uint64{0, 4, 0},
	}
	for i := range syn.AbortsByCause {
		syn.AbortsByCause[i] = uint64(70 + i)
	}
	for i := range syn.GETXOutcomes {
		syn.GETXOutcomes[i] = uint64(80 + i)
	}
	for c := range syn.Net.Messages {
		syn.Net.Messages[c] = uint64(30 + c)
		syn.Net.Flits[c] = uint64(40 + c)
		syn.Net.RouterTraversal[c] = uint64(50 + c)
	}
	syn.Net.TotalLatency, syn.Net.QueueingDelay = 60, 61
	raw, err = puno.EncodeResult(syn)
	if err != nil {
		t.Fatal(err)
	}
	pin("synthetic punores/3", raw)
	pin("synthetic punoevt/1", save(&puno.EventTrace{
		Workload: "synthetic", Scheme: "ATS", Seed: 1<<63 + 5,
		Lines: []puno.Line{0x40, 0x1000, 0xffffffffc0},
		Events: []puno.Event{
			{Cycle: 0, Kind: 1, Node: 3, Line: 1, Arg: 1 << 40},
			{Cycle: 130, Kind: 2, Node: 0, Line: 0, Arg: 0},
			{Cycle: 130, Kind: 3, Node: 255, Line: 3, Arg: 300},
			{Cycle: 1 << 33, Kind: 4, Node: 7, Line: 2, Arg: 1<<64 - 1},
		},
	}))

	// -update is declared by determinism_test.go in package puno; this file
	// is an external test because internal/serve imports the root package.
	path := filepath.Join("testdata", "wire_golden.txt")
	if flag.Lookup("update").Value.String() == "true" {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing %s (run `go test -run Golden -update .`): %v", path, err)
	}
	if out.String() != string(want) {
		t.Fatalf("a binary format changed its bytes (a format change needs a new magic; -update only after one):\n--- got ---\n%s--- want ---\n%s",
			out.String(), want)
	}
}
