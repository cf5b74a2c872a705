package machine_test

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stamp"
)

// TestDumpStateCountsRefetches pins the stale-read storm's symptom where
// DumpState can see it: on bayes/RMW-Pred seed 1 capped at 500 000 cycles,
// the oldest transaction (node 8) has one GETS to 0x1880 outstanding and
// has discarded and refetched its data over and over, while its retry count
// stays 0. The dump must show a non-zero refetches= for that request.
func TestDumpStateCountsRefetches(t *testing.T) {
	p, err := stamp.ByName("bayes")
	if err != nil {
		t.Fatal(err)
	}
	s, err := machine.SchemeByName("rmw-pred")
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Scheme = s
	cfg.Seed = 1
	cfg.MaxCycles = sim.Time(500_000)
	m, err := machine.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("run finished within the cycle cap; the storm this test observes is gone, so replace the fixture")
	}
	var dump bytes.Buffer
	m.DumpState(&dump)
	re := regexp.MustCompile(`(?m)^node  8: .* req\{line=0x1880 write=false .* retries=(\d+) refetches=(\d+)\}$`)
	g := re.FindSubmatch(dump.Bytes())
	if g == nil {
		t.Fatalf("no outstanding GETS to 0x1880 on node 8 in the dump:\n%s", dump.String())
	}
	refetches, _ := strconv.Atoi(string(g[2]))
	if refetches == 0 {
		t.Fatalf("node 8 shows retries=%s refetches=0; its read is being discarded and refetched", g[1])
	}
	t.Logf("node 8: retries=%s refetches=%d", g[1], refetches)
}
