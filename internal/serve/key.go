// Package serve is the long-running simulation service behind cmd/punoserve:
// an HTTP/JSON job API over three performance layers — a content-addressed
// result cache, singleflight deduplication of concurrent identical
// requests, and a persistent worker pool of reusable simulation arenas.
//
// The load-bearing property is determinism. punovet mechanizes the claim
// that one (Config, workload, seed) point always produces one Result, so a
// cache keyed by the canonical encoding of those inputs (plus the code
// version) can never serve a stale answer: a hit is provably fresh, and
// warm requests never touch the simulator. See DESIGN.md
// "Content-addressed result caching".
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/debug"

	puno "repro"
	"repro/internal/wire"
)

// Key is the content address of one simulation point: the SHA-256 of the
// canonical encoding of (code version, machine.Config, workload). Equal
// keys mean equal inputs mean — by the determinism contract — equal
// Results.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk artifact name and
// the /v1/results/{key} path segment).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes the hex rendering produced by String, straight into
// the Key (the conversion of s is zero-copy: hex.Decode only reads it).
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) == hex.EncodedLen(len(k)) {
		if _, err := hex.Decode(k[:], []byte(s)); err == nil {
			return k, nil
		}
	}
	return Key{}, fmt.Errorf("serve: malformed result key %q", s)
}

// keyMagic versions the key material layout itself; bumping it (or either
// nested encoding's magic) rotates every key, which is the safe failure
// mode — a stale key can never alias a run with different semantics.
const keyMagic = "punokey/1"

// wlMagic versions the workload portion of the key material.
const wlMagic = "punowl/1"

// BuildKey derives the content address of one simulation point. The
// material is keyMagic, the code version (len-prefixed), the Config's
// canonical punocfg/4 encoding, and the workload profile's canonical
// encoding. Shards is excluded by the Config encoding: the service runs
// every point on the serial engine whatever Shards holds.
func BuildKey(codeVersion string, cfg puno.Config, wl *puno.Profile) (Key, error) {
	b := make([]byte, 0, 512)
	b = append(b, keyMagic...)
	b = wire.AppendString(b, codeVersion)
	b, err := cfg.AppendCanonical(b)
	if err != nil {
		return Key{}, err
	}
	b = appendWorkloadCanonical(b, wl)
	return sumKey(b), nil
}

// sumKey hashes assembled key material. Hot: every request — warm or cold —
// pays exactly one of these before the cache lookup.
//
//puno:hot
func sumKey(material []byte) Key {
	return Key(sha256.Sum256(material))
}

// appendWorkloadCanonical appends the deterministic encoding of a stamp
// profile: name, contention class, transaction count, the paper abort rate
// (bit pattern, so float equality is byte equality), and every Class field
// in declaration order. Any knob that can change a generated transaction
// stream changes the bytes.
func appendWorkloadCanonical(b []byte, p *puno.Profile) []byte {
	b = append(b, wlMagic...)
	b = wire.AppendString(b, p.Name())
	b = wire.AppendBool(b, p.HighContention())
	b = wire.AppendInt(b, p.TxPerCPU())
	b = binary.AppendUvarint(b, math.Float64bits(p.PaperAbortRate))
	classes := p.Classes()
	b = binary.AppendUvarint(b, uint64(len(classes)))
	for _, cl := range classes {
		b = wire.AppendInt(b, cl.StaticID)
		b = wire.AppendInt(b, cl.Weight)
		b = binary.AppendUvarint(b, uint64(cl.RegionBase))
		b = wire.AppendInt(b, cl.RegionLines)
		b = wire.AppendBool(b, cl.ReadWholeRegion)
		b = wire.AppendInt(b, cl.ReadsMin)
		b = wire.AppendInt(b, cl.ReadsMax)
		b = wire.AppendInt(b, cl.WritesMin)
		b = wire.AppendInt(b, cl.WritesMax)
		b = wire.AppendBool(b, cl.WritesFromReads)
		b = wire.AppendBool(b, cl.RMW)
		b = wire.AppendInt(b, cl.HotLines)
		b = wire.AppendInt(b, cl.PrivateLines)
		b = binary.AppendUvarint(b, uint64(cl.ComputePerRead))
		b = binary.AppendUvarint(b, uint64(cl.BodyCompute))
		b = binary.AppendUvarint(b, uint64(cl.Think))
	}
	return b
}

// DetectCodeVersion returns the VCS revision baked into the binary by the
// Go toolchain, or "dev" when building outside a stamped checkout (go test,
// uncommitted worktrees). Dev builds should pass an explicit -codeversion
// so two differing dev binaries never share cache slots.
func DetectCodeVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "dev"
}
