package machine

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/probe"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// codecResult runs a small contended workload and returns the
// arena-independent clone the cache would store.
func codecResult(t testing.TB, seed uint64) *Result {
	t.Helper()
	cfg := smallConfig(SchemePUNO, seed)
	wl := counterWorkload{name: "codec", txPerCPU: 6, counters: 4, incrsPer: 3, think: 50}
	_, res := runWorkload(t, cfg, wl)
	return res.Clone()
}

func TestResultRoundTrip(t *testing.T) {
	res := codecResult(t, 7)
	if res.Aborts == 0 || len(res.FalseAbortHist) == 0 {
		t.Fatalf("fixture run too tame to exercise the codec: %+v", res)
	}
	raw, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("decode(encode(r)) != r\n got %+v\nwant %+v", got, res)
	}
}

// Encoding a synthetic Result with every field family explicitly nonzero
// (including fields a short run can leave at zero) must round-trip exactly.
func TestResultRoundTripSynthetic(t *testing.T) {
	res := &Result{
		Workload:        "synthetic",
		Scheme:          SchemeATS,
		Cycles:          1 << 40,
		Commits:         3,
		Aborts:          5,
		AbortsByCause:   [numCauses]uint64{1, 2, 3},
		TxGETXIssued:    9,
		TxGETXAccesses:  8,
		GETXOutcomes:    [numOutcomes]uint64{10, 11, 12, 13},
		FalseAbortHist:  []uint64{0, 2, 0, 1},
		GoodCycles:      100,
		DiscardedCycles: 200,
		DirTxGETXBusy:   14, DirTxGETXServices: 15,
		DirBusyAll: 16, DirBusyNacks: 17,
		DirUnicasts: 18, DirMulticastFwds: 19,
		Mispredictions: 20,
		Nacks:          21, Retries: 22,
		BackoffCycles: 23, RestartWaitCycle: 24, NotifiedBackoffs: 25,
		PerNodeCommits: []uint64{1, 0, 2},
		PerNodeAborts:  []uint64{0, 4, 0},
	}
	for c := range res.Net.Messages {
		res.Net.Messages[c] = uint64(30 + c)
		res.Net.Flits[c] = uint64(40 + c)
		res.Net.RouterTraversal[c] = uint64(50 + c)
	}
	res.Net.TotalLatency = 60
	res.Net.QueueingDelay = 61
	raw, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("synthetic round trip mismatch\n got %+v\nwant %+v", got, res)
	}
}

// The encoding must be byte-stable: two independent in-process runs of the
// same (config, workload, seed) point encode to identical bytes. This is
// the property that lets the result cache prove freshness by construction.
func TestResultEncodingByteStable(t *testing.T) {
	a, err := EncodeResult(codecResult(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(codecResult(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two runs of the same point encoded differently (%d vs %d bytes)", len(a), len(b))
	}
	c, err := EncodeResult(codecResult(t, 12))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds encoded identically")
	}
}

func decodeErr(raw []byte) error {
	_, err := DecodeResult(raw)
	return err
}

// Each test hands one real artifact to the shared harness: every
// truncation point, every byte flipped, trailing bytes with a stale and
// with a valid checksum, wrong magic, garbage, empty input, and a 2^28
// count written over every offset.
func TestResultTruncationDetected(t *testing.T) {
	raw, err := EncodeResult(codecResult(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	wiretest.RejectsDamage(t, raw, decodeErr)
}

func TestResultCorruptionDetected(t *testing.T) {
	raw, err := EncodeResult(codecResult(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	wiretest.RejectsDamage(t, raw, decodeErr)
}

// FuzzDecodeResult certifies that the decoder never panics and that it
// accepts only the canonical rendering: whatever decodes re-encodes to the
// bytes it came from. A fuzzer cannot guess a checksum, so each input is
// tried as it stands and as a body sealed under the magic, which lets
// mutations through to the field decoder.
func FuzzDecodeResult(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		raw, err := EncodeResult(codecResult(f, seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[len(resMagic) : len(raw)-4])
	}
	f.Add([]byte(resMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, raw := range [][]byte{data, wire.Seal(append([]byte(resMagic), data...), 0)} {
			r, err := DecodeResult(raw)
			if err != nil {
				continue
			}
			again, err := EncodeResult(r)
			if err != nil {
				t.Fatalf("accepted artifact failed to re-encode: %v", err)
			}
			if !bytes.Equal(again, raw) {
				t.Fatalf("accepted artifact is not canonical:\n  in %x\n out %x", raw, again)
			}
		}
	})
}

func TestEncodeResultRejectsInvalid(t *testing.T) {
	if _, err := EncodeResult(&Result{Scheme: numSchemes}); err == nil {
		t.Fatal("out-of-range scheme encoded")
	}
	if _, err := EncodeResult(&Result{PerNodeCommits: []uint64{1}}); err == nil {
		t.Fatal("mismatched per-node slices encoded")
	}
}

// artifact builds a checksum-valid punores/3 body by hand, for probing the
// decoder's structural checks (which sit behind the checksum gate).
func artifact(build func(u func(uint64), raw func(...byte))) []byte {
	b := []byte(resMagic)
	build(
		func(v uint64) { b = binary.AppendUvarint(b, v) },
		func(p ...byte) { b = append(b, p...) },
	)
	return wire.Seal(b, 0)
}

// zeros appends n zero-valued fields.
func zeros(u func(uint64), n int) {
	for i := 0; i < n; i++ {
		u(0)
	}
}

// A checksum-valid 61-byte artifact, well formed up to a node count claiming
// 2^26 nodes: the claim must be refused against the bytes that are left.
func TestDecodeResultRejectsCountBomb(t *testing.T) {
	var r Result
	raw := artifact(func(u func(uint64), raw func(...byte)) {
		u(1)
		raw('w')
		zeros(u, 4) // scheme, cycles, commits, aborts
		u(uint64(numCauses))
		zeros(u, int(numCauses)+2) // causes, txGETXIssued, txGETXAccesses
		u(uint64(numOutcomes))
		zeros(u, int(numOutcomes)+3) // outcomes, empty histogram, good and discarded cycles
		u(uint64(len(r.Net.Messages)))
		zeros(u, 3*len(r.Net.Messages)+2+12) // classes, latency and queueing, 12 counters
		u(1 << 26)
	})
	if len(raw) != 61 {
		t.Fatalf("bomb is %d bytes, want 61", len(raw))
	}
	wiretest.RejectsBomb(t, raw, decodeErr)
}

func TestDecodeResultRejectsFormatDrift(t *testing.T) {
	cases := map[string][]byte{
		"unknown scheme": artifact(func(u func(uint64), raw func(...byte)) {
			u(1)
			raw('w')
			u(uint64(numSchemes)) // scheme beyond this build's range
			u(0)                  // cycles — truncation after this is fine; scheme check must fire first on full decode
		}),
		"wrong cause count": artifact(func(u func(uint64), raw func(...byte)) {
			u(1)
			raw('w')
			u(0) // scheme
			u(0) // cycles
			u(0) // commits
			u(0) // aborts
			u(uint64(numCauses + 1))
		}),
		"implausible hist length": artifact(func(u func(uint64), raw func(...byte)) {
			u(1)
			raw('w')
			u(0) // scheme
			u(0) // cycles
			u(0) // commits
			u(0) // aborts
			u(uint64(numCauses))
			for i := 0; i < int(numCauses); i++ {
				u(0)
			}
			u(0) // txGETXIssued
			u(0) // txGETXAccesses
			u(uint64(numOutcomes))
			for i := 0; i < int(numOutcomes); i++ {
				u(0)
			}
			u(1 << 30) // hist length far past what the artifact holds
		}),
		"bad magic": append([]byte("punores/9"), make([]byte, 8)...),
	}
	for name, raw := range cases {
		if _, err := DecodeResult(raw); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestConfigCanonicalDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = SchemePUNO
	cfg.Seed = 42
	a, err := cfg.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same config encoded differently across calls")
	}
	if !bytes.HasPrefix(a, []byte(cfgMagic)) {
		t.Fatalf("canonical encoding does not start with %q", cfgMagic)
	}

	// Every leaf field of Config, nested structs included, must move the
	// bytes except the two deliberate exclusions. The walk is over the type,
	// so a field added to Config but not to AppendCanonical fails here
	// instead of silently sharing a cache key.
	for _, l := range configLeaves(reflect.TypeFor[Config](), "", nil) {
		mc := cfg
		f := reflect.ValueOf(&mc).Elem().FieldByIndex(l.index)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Errorf("%s: cannot vary a %s field; extend this walk", l.name, f.Kind())
			continue
		}
		got, err := mc.AppendCanonical(nil)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if bytes.Equal(a, got) {
			t.Errorf("bumping %s did not change the canonical encoding", l.name)
		}
	}

	// Shards is an execution strategy (bit-identical results certified by
	// the PDES determinism suite), so it must NOT move the bytes.
	sc := cfg
	sc.Shards = 4
	got, err := sc.AppendCanonical(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, got) {
		t.Error("Shards changed the canonical encoding; equivalent runs would fragment the cache")
	}
}

// configLeaf is one non-struct field of Config, reached by index through
// any nested structs.
type configLeaf struct {
	name  string
	index []int
}

// configLeaves lists the leaf fields of t (a Config or a struct nested in
// it), skipping Shards and EventSink, which AppendCanonical leaves out on
// purpose.
func configLeaves(t reflect.Type, prefix string, index []int) []configLeaf {
	var out []configLeaf
	for i := range t.NumField() {
		name, idx := prefix+t.Field(i).Name, append(index[:len(index):len(index)], i)
		switch {
		case name == "Shards" || name == "EventSink":
		case t.Field(i).Type.Kind() == reflect.Struct:
			out = append(out, configLeaves(t.Field(i).Type, name+".", idx)...)
		default:
			out = append(out, configLeaf{name, idx})
		}
	}
	return out
}

func TestConfigCanonicalRefusesLiveState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EventSink = &probe.Buffer{}
	if _, err := cfg.AppendCanonical(nil); err == nil {
		t.Fatal("config with EventSink encoded")
	}
}

func TestSchemeByName(t *testing.T) {
	if len(AllSchemes()) != int(numSchemes) {
		t.Fatalf("AllSchemes lists %d schemes, the enum has %d", len(AllSchemes()), numSchemes)
	}
	for i, s := range AllSchemes() {
		if int(s) != i {
			t.Fatalf("AllSchemes()[%d] = %v, want enum order", i, s)
		}
		got, err := SchemeByName(strings.ToUpper(s.String()))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got != s {
			t.Fatalf("SchemeByName(%q) = %v, want %v", s.String(), got, s)
		}
	}
	if _, err := SchemeByName("no-such-scheme"); err == nil {
		t.Fatal("unknown scheme name resolved")
	} else if !strings.Contains(err.Error(), "PUNO") {
		t.Fatalf("miss error does not list valid names: %v", err)
	}
}
