package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	puno "repro"
)

// fuzzService is a service that answers but never simulates: its one
// worker parks at a gate nobody opens. A fuzzed spec may describe a
// machine of any size, and nothing here may build one. The first accepted
// spec occupies the worker and the second the queue slot, so later ones
// exercise the collapse (202) and backpressure (429) answers; fastSpec(1)
// is already cached under the returned key, for the 200s.
func fuzzService(f *testing.F) (*Service, Key) {
	f.Helper()
	s, _ := gatedService(f, Options{Workers: 1, QueueDepth: 1, CodeVersion: "fuzz"})
	key := specKey(f, fastSpec(1), "fuzz")
	data, err := puno.EncodeResult(&puno.Result{Workload: "fixture", FalseAbortHist: []uint64{}})
	if err != nil {
		f.Fatal(err)
	}
	s.cache.Put(key, data)
	return s, key
}

// FuzzSubmitBody: the body of POST /v1/jobs is outside input. Whatever the
// bytes, the handler answers with one of its documented codes, and a body
// it accepts is filed under the key of the spec it decodes to.
func FuzzSubmitBody(f *testing.F) {
	s, _ := fuzzService(f)
	h := s.Handler()
	// The one seed too large to keep as a corpus file: a body past the
	// limit (the rest are under testdata/fuzz/FuzzSubmitBody).
	f.Add([]byte(`{"workload":"` + strings.Repeat("a", maxSpecBytes) + `"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
			return
		case http.StatusOK, http.StatusAccepted:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		var got jobJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("accepted, but the answer is not a job: %v", err)
		}
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		if want := specKey(t, spec, "fuzz"); got.Key != want.String() {
			t.Fatalf("spec %+v filed under %s, its key is %s", spec, got.Key, want)
		}
	})
}

// FuzzResultKeyPath: the {key} segment of /v1/results/{key} is outside
// input. It is a resident key (200), a well-formed absent one (410), or
// malformed (400) — never a panic, never a 5xx.
func FuzzResultKeyPath(f *testing.F) {
	s, resident := fuzzService(f)
	h := s.Handler()
	// The one seed that is computed, not written down (the rest are under
	// testdata/fuzz/FuzzResultKeyPath).
	f.Add(resident.String())

	f.Fuzz(func(t *testing.T, seg string) {
		switch seg {
		case "", ".", "..", "/":
			// The mux cleans the first three away and reads an escaped
			// lone slash as a trailing one: the handler never sees them.
			t.Skip("not a path segment")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/results/"+url.PathEscape(seg), nil))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusGone:
		default:
			t.Fatalf("status %d for segment %q", rec.Code, seg)
		}
	})
}
