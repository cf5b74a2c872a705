package cache_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/stamp"
)

// TestFootprintFollowsResidency runs the repository benchmark's 64-node
// point (intruder, PUNO, three transactions per CPU) twice on one machine.
// Each L1's slab holds at most one chunk beyond the most lines the node held
// at once, where the dense array held all 512 ways, and the second run
// grows no chunk.
func TestFootprintFollowsResidency(t *testing.T) {
	p, err := stamp.ByName("intruder")
	if err != nil {
		t.Fatal(err)
	}
	wl := p.WithTxPerCPU(3)
	cfg := machine.DefaultConfig()
	cfg.Scheme = machine.SchemePUNO
	cfg.Mesh.Width, cfg.Mesh.Height, cfg.Nodes = 8, 8, 64
	m, err := machine.New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	ways := cfg.L1.Sets() * cfg.L1.Ways
	caps := make([]int, cfg.Nodes)
	for run := 0; run < 2; run++ {
		if run > 0 {
			if err := m.Reset(cfg, wl); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for n := range caps {
			l1 := m.L1(n)
			c, peak := l1.EntryCap(), l1.EntriesOut()
			total += c
			if c > peak+cache.ChunkEntries {
				t.Errorf("run %d node %d: slab holds %d entries for a peak of %d lines", run, n, c, peak)
			}
			if run > 0 && c != caps[n] {
				t.Errorf("node %d: the second run took the slab from %d to %d entries", n, caps[n], c)
			}
			caps[n] = c
		}
		t.Logf("run %d: %d entries over %d nodes, %d ways", run, total, cfg.Nodes, cfg.Nodes*ways)
	}
}
