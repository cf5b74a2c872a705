package wiretest

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/wire"
)

const magic = "list/1"

func encodeList(nums ...uint64) []byte {
	b := wire.AppendInt([]byte(magic), len(nums))
	for _, n := range nums {
		b = binary.AppendUvarint(b, n)
	}
	return wire.Seal(b, 0)
}

// decodeList is a decoder with two switchable defects: trusting its count
// (up to 8 MiB, so the test stays cheap) and not checking for trailing bytes.
func decodeList(raw []byte, trustCount, skipClose bool) error {
	d, err := wire.Open(magic, "list", raw)
	if err != nil {
		return err
	}
	var n int
	if trustCount {
		n = int(min(d.Uvarint("count"), 1<<20))
	} else {
		n = d.Count("count", 1)
	}
	nums := make([]uint64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		nums[i] = d.Uvarint("num")
	}
	if skipClose {
		return d.Err()
	}
	return d.Close()
}

// recorder stands in for *testing.T so the harness's verdict on a defective
// decoder can be observed instead of failing this test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	panic(r)
}

func verdict(f func(testing.TB)) (errs []string) {
	r := &recorder{}
	defer func() {
		if p := recover(); p != nil && p != any(r) {
			panic(p)
		}
		errs = r.errs
	}()
	f(r)
	return
}

// A harness that cannot fail proves nothing: it passes the sound decoder
// and names the defect of each unsound one.
func TestHarnessVerdicts(t *testing.T) {
	good := encodeList(3, 1<<20, 5)
	for name, c := range map[string]struct {
		trustCount, skipClose bool
		want                  string
	}{
		"sound":                 {false, false, ""},
		"trusts its count":      {true, false, "decode allocated"},
		"ignores trailing data": {false, true, "two bytes appended to the body, re-sealed"},
	} {
		errs := verdict(func(tb testing.TB) {
			RejectsDamage(tb, good, func(b []byte) error { return decodeList(b, c.trustCount, c.skipClose) })
		})
		switch {
		case c.want == "" && len(errs) != 0:
			t.Errorf("%s decoder: harness reported %q", name, errs)
		case c.want != "" && !strings.Contains(strings.Join(errs, "\n"), c.want):
			t.Errorf("%s decoder: harness reported %q, want a finding containing %q", name, errs, c.want)
		}
	}
	if errs := verdict(func(tb testing.TB) { RejectsDamage(tb, good[:5], func([]byte) error { return fmt.Errorf("no") }) }); len(errs) != 1 {
		t.Errorf("a rejected fixture should stop the harness with one finding, got %q", errs)
	}
}

func TestRejectsBombVerdicts(t *testing.T) {
	bomb := wire.Seal(binary.AppendUvarint([]byte(magic), 1<<28), 0)
	for name, c := range map[string]struct {
		trustCount bool
		raw        []byte
		want       string
	}{
		"sound":            {false, bomb, ""},
		"trusts its count": {true, bomb, "decode allocated"},
		"not a bomb":       {false, encodeList(1), "decoded without error"},
	} {
		errs := verdict(func(tb testing.TB) {
			RejectsBomb(tb, c.raw, func(b []byte) error { return decodeList(b, c.trustCount, false) })
		})
		switch {
		case c.want == "" && len(errs) != 0:
			t.Errorf("%s: RejectsBomb reported %q", name, errs)
		case c.want != "" && !strings.Contains(strings.Join(errs, "\n"), c.want):
			t.Errorf("%s: RejectsBomb reported %q, want a finding containing %q", name, errs, c.want)
		}
	}
}
