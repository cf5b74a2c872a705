// Package pdes keeps the entry points of the conservative parallel
// discrete-event coordinator that once ran one machine across shards of
// worker goroutines. It never beat the serial engine (DESIGN.md, "Conservative
// PDES"), so it was removed; what remains runs the serial engine, which is
// trivially bit-identical to itself. The package stays only so that the
// repository benchmark's sharded probe still compiles, and it goes with that
// probe.
package pdes

import (
	"fmt"

	"repro/internal/machine"
)

// Coordinator runs a sharded configuration on one serial machine. Like
// machine.Machine it is a reusable arena: Reset rebuilds it for a new
// (cfg, wl), and a fresh and a reused coordinator run identically.
type Coordinator struct {
	m machine.Machine
}

// Eligible reports whether cfg asks for shards: Shards > 1. It reads
// nothing else; wl stays in the signature the benchmark calls.
func Eligible(cfg machine.Config, wl machine.Workload) bool {
	return cfg.Shards > 1
}

// New builds a coordinator for cfg, whose Shards must be > 1, running wl.
func New(cfg machine.Config, wl machine.Workload) (*Coordinator, error) {
	c := &Coordinator{}
	if err := c.Reset(cfg, wl); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds the coordinator for (cfg, wl) with machine.Machine.Reset;
// it may be called in any state, including after a failed or hung run.
func (c *Coordinator) Reset(cfg machine.Config, wl machine.Workload) error {
	if !Eligible(cfg, wl) {
		return fmt.Errorf("pdes: Shards=%d asks for no sharding", cfg.Shards)
	}
	return c.m.Reset(cfg, wl)
}

// Run executes the workload to completion and returns the measurements.
func (c *Coordinator) Run() (*machine.Result, error) { return c.m.Run() }
