// Package wiretest is the one corruption harness for decoders built on
// internal/wire: every way a frame can arrive damaged, applied to one good
// encoding. It lives outside wire so production binaries do not link
// testing.
package wiretest

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

// bomb is the length a rewritten count claims: small enough to pass any
// absolute plausibility bound, large enough that a decoder trusting it
// allocates gigabytes.
const bomb = 1 << 28

// maxAlloc is what one decode of a small damaged frame may allocate.
const maxAlloc = 1 << 20

// RejectsDamage checks that decode accepts good and rejects every damaged
// form of it: each proper prefix, each byte XOR 0x41, appended garbage
// (checksum left stale, and re-sealed over body+garbage), a re-sealed frame
// with the magic altered, non-frames, and — for a crafted rather than an
// accidental fault — every body offset rewritten to a uvarint claiming 2^28
// and re-sealed, which decode may accept or reject but must not size an
// allocation from.
func RejectsDamage(t testing.TB, good []byte, decode func([]byte) error) {
	t.Helper()
	if err := decode(good); err != nil {
		t.Fatalf("undamaged frame rejected: %v", err)
	}
	reject := func(raw []byte, format string, args ...any) {
		t.Helper()
		if decode(raw) == nil {
			t.Errorf("decoded without error: "+format, args...)
		}
	}
	for cut := range good {
		reject(good[:cut], "truncated to %d of %d bytes", cut, len(good))
	}
	for i := range good {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x41
		reject(mut, "byte %d of %d flipped", i, len(good))
	}
	body := good[:len(good)-4]
	reject(append(append([]byte(nil), good...), 0), "one byte appended after the checksum")
	reject(wire.Seal(append(append([]byte(nil), body...), 0, 0), 0), "two bytes appended to the body, re-sealed")
	wrong := append([]byte(nil), body...)
	wrong[0] ^= 0x41
	reject(wire.Seal(wrong, 0), "magic altered, re-sealed")
	reject([]byte("not a frame at all"), "garbage")
	reject(nil, "empty input")

	for at := range body {
		_, n := binary.Uvarint(body[at:])
		if n <= 0 {
			n = 1
		}
		mut := binary.AppendUvarint(append([]byte(nil), body[:at]...), bomb)
		mut = wire.Seal(append(mut, body[at+n:]...), 0)
		if got := allocated(func() { _ = decode(mut) }); got > maxAlloc {
			t.Errorf("offset %d rewritten to claim %d: decode allocated %d bytes", at, bomb, got)
		}
	}
}

// RejectsBomb checks that decode refuses raw — a small, checksum-valid
// frame whose count claims far more items than it carries — quickly and
// without allocating for the claim: under 1 MiB, and under 10 ms on the
// best of three tries (a loaded host can stall any single one).
func RejectsBomb(t testing.TB, raw []byte, decode func([]byte) error) {
	t.Helper()
	best := time.Hour
	for try := 0; try < 3; try++ {
		var err error
		start := time.Now()
		got := allocated(func() { err = decode(raw) })
		if d := time.Since(start); d < best {
			best = d
		}
		if err == nil {
			t.Fatalf("%d-byte count bomb decoded without error", len(raw))
		}
		if got > maxAlloc {
			t.Fatalf("%d-byte count bomb: decode allocated %d bytes before failing with %q", len(raw), got, err)
		}
	}
	if best > 10*time.Millisecond {
		t.Fatalf("%d-byte count bomb took %v to reject", len(raw), best)
	}
}

// allocated returns the bytes f allocates (and whatever else the process
// allocates meanwhile: a ceiling, which is what the callers compare).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
