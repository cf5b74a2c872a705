package machine

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/wire"
)

// Canonical configuration encoding: the deterministic byte rendering of a
// Config that content-addressed result caching hashes. Two Configs that
// would produce the same simulation trajectory encode identically, and any
// field that can change a Result changes the bytes. The encoding is
// versioned ("punocfg/5"): adding a Config field that influences results,
// or removing one, must change AppendCanonical and bump the version, which
// rotates every cache key — exactly the safe failure mode, since a stale
// key can never alias a run with different semantics.
//
// The fixed Table II timing (the latency and occupancy constants, the noc
// router and link constants, core.TxLBEntries, htm.DefaultCosts) is code,
// not configuration: the code version in the cache key covers it.
//
// Two deliberate exclusions:
//
//   - Shards is not an observable: every entry point runs the serial
//     engine whatever it holds, so including it would only fragment the
//     cache across identical runs.
//   - EventSink is a host-side observation hook. It carries no canonical
//     byte form, and a run with a sink is cycle-identical to one without,
//     so AppendCanonical refuses configs that set it rather than silently
//     dropping live state from the key.
const cfgMagic = "punocfg/5"

// AppendCanonical appends the canonical binary encoding of c to dst and
// returns the extended slice. It fails when c carries non-encodable live
// state (EventSink) — callers building cache keys must hash pure parameter
// sets.
func (c *Config) AppendCanonical(dst []byte) ([]byte, error) {
	if c.EventSink != nil {
		return nil, fmt.Errorf("machine: config with EventSink set has no canonical encoding")
	}
	b := append(dst, cfgMagic...)
	b = wire.AppendInt(b, c.Nodes)
	b = wire.AppendInt(b, c.Mesh.Width)
	b = wire.AppendInt(b, c.Mesh.Height)
	b = wire.AppendInt(b, c.L1.SizeBytes)
	b = wire.AppendInt(b, c.L1.Ways)
	b = wire.AppendInt(b, int(c.Scheme))
	b = wire.AppendInt(b, c.SignatureBits)
	b = wire.AppendBool(b, c.DisableValidity)
	b = wire.AppendInt(b, c.ValidityTimeoutMult)
	b = binary.AppendUvarint(b, uint64(c.NotifyGuardOverride))
	b = binary.AppendUvarint(b, uint64(c.MaxCycles))
	b = binary.AppendUvarint(b, c.Seed)
	return b, nil
}

// SchemeByName resolves a case-insensitive scheme name (the String()
// renderings: "Baseline", "Backoff", "RMW-Pred", "PUNO", …) to its Scheme
// value, with an error listing the valid names on a miss.
func SchemeByName(name string) (Scheme, error) {
	names := make([]string, 0, int(numSchemes))
	for _, s := range AllSchemes() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
		names = append(names, s.String())
	}
	return 0, fmt.Errorf("machine: unknown scheme %q (have %s)", name, strings.Join(names, ", "))
}
