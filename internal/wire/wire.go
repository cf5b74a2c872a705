// Package wire is the one substrate under the repo's binary formats
// (punoevt/1, punores/3, punocfg/5, punowl/1, punokey/1; DESIGN.md "Binary
// formats"). Every quantity is a uvarint, a raw byte or a length-prefixed
// string. A decoded format is a frame:
//
//	magic · body · FNV-32a over magic+body, 4 bytes big-endian
//
// Encoders append with encoding/binary's AppendUvarint and the helpers
// here, then Seal. Decoders Open the frame — magic and checksum are checked
// before any field is read — and walk the body with a Cursor. Key material
// (punocfg/5, punowl/1, punokey/1) is hashed, never decoded, so it is
// appended the same way and not sealed.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// AppendInt appends v as a uvarint of its two's-complement 64-bit pattern.
func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(int64(v))) }

// AppendBool appends one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends len(s) as a uvarint, then the bytes of s.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Seal closes the frame that starts at b[from] (its magic) by appending the
// checksum of b[from:].
func Seal(b []byte, from int) []byte {
	return binary.BigEndian.AppendUint32(b, checksum(b[from:]))
}

func checksum(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// Open checks that raw is one whole frame — long enough, starting with
// magic, ending in the checksum of everything before it — and returns a
// Cursor over the body. what names the artifact in error messages, package
// prefix included ("trace: event trace"). The checksum catches truncation
// and accidental damage; it is no defence against a crafted file, which is
// why Count bounds every length by the bytes that are actually there.
func Open(magic, what string, raw []byte) (Cursor, error) {
	if len(raw) < len(magic)+4 {
		return Cursor{}, fmt.Errorf("%s truncated (%d bytes)", what, len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return Cursor{}, fmt.Errorf("%s has bad magic %q (want %q)", what, raw[:len(magic)], magic)
	}
	body, sum := raw[:len(raw)-4], raw[len(raw)-4:]
	if checksum(body) != binary.BigEndian.Uint32(sum) {
		return Cursor{}, fmt.Errorf("%s checksum mismatch (truncated or corrupted)", what)
	}
	return Cursor{buf: body[len(magic):], what: what}, nil
}

// Cursor reads a frame's body front to back. The first framing error
// sticks: every later read returns zero and leaves the error in place, so a
// decoder checks Err where it would otherwise act on a value (before a
// make, in a loop condition) and Close at the end. Hold it by value.
type Cursor struct {
	buf  []byte
	what string
	err  error
}

// Err returns the first framing error, or nil.
func (c *Cursor) Err() error { return c.err }

func (c *Cursor) fail(field string) {
	c.err = fmt.Errorf("%s truncated or malformed reading %s", c.what, field)
}

// Uvarint reads one uvarint. A zero-padded spelling (0x80 0x00 for 0) is
// refused like a cut-off one: a value has one encoding, so whatever decodes
// re-encodes to the bytes it came from.
func (c *Cursor) Uvarint(field string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf)
	if n <= 0 || n > 1 && c.buf[n-1] == 0 {
		c.fail(field)
		return 0
	}
	c.buf = c.buf[n:]
	return v
}

// Byte reads one raw byte.
func (c *Cursor) Byte(field string) byte {
	if c.err != nil {
		return 0
	}
	if len(c.buf) == 0 {
		c.fail(field)
		return 0
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	return v
}

// String reads a length-prefixed string.
func (c *Cursor) String(field string) string {
	n := c.Count(field, 1)
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s
}

// Count reads the length prefix of a list whose items each encode to at
// least minItemBytes. A count the remaining bytes cannot hold is a framing
// error, so no decoder sizes an allocation from a number the input merely
// claims: what it makes is bounded by the length of what it was given.
func (c *Cursor) Count(field string, minItemBytes int) int {
	v := c.Uvarint(field)
	if c.err == nil && v > uint64(len(c.buf)/minItemBytes) {
		c.err = fmt.Errorf("%s claims %d × %d bytes for %s with %d left", c.what, v, minItemBytes, field, len(c.buf))
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// Close ends the decode: the sticky error if there is one, else an error if
// the body has bytes the decoder did not consume.
func (c *Cursor) Close() error {
	if c.err == nil && len(c.buf) != 0 {
		c.err = fmt.Errorf("%s has %d trailing bytes", c.what, len(c.buf))
	}
	return c.err
}
