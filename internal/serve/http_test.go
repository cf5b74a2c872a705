package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	puno "repro"
)

// postSpec submits a spec over HTTP and decodes the job rendering.
func postSpec(t *testing.T, ts *httptest.Server, sp Spec) (jobJSON, *http.Response) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return j, resp
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// TestHTTPEndToEnd walks the whole client protocol: submit, long-poll to
// terminal, fetch the artifact (byte-identical to a direct simulation),
// refetch by content address, resubmit for a 200 cache hit, and decode to
// JSON.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := fastSpec(900)
	j, resp := postSpec(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if j.ID == "" || j.Key == "" {
		t.Fatalf("submit rendering incomplete: %+v", j)
	}

	// Long-poll until terminal.
	code, _, body := getBody(t, ts.URL+"/v1/jobs/"+j.ID+"?wait=1")
	if code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	var polled jobJSON
	if err := json.Unmarshal(body, &polled); err != nil {
		t.Fatal(err)
	}
	if polled.State != string(StateDone) {
		t.Fatalf("long-poll returned state %q", polled.State)
	}

	// The served artifact is byte-identical to a direct run's encoding.
	rs, _, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := puno.Run(rs.Config, rs.Workload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := puno.EncodeResult(direct.Clone())
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, got := getBody(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("result fetch: status %d, byte-equal %v", code, bytes.Equal(got, want))
	}
	if hdr.Get("X-Puno-Key") != j.Key {
		t.Fatalf("artifact key header %q, job key %q", hdr.Get("X-Puno-Key"), j.Key)
	}

	// Content-addressed fetch serves the same bytes.
	code, _, byKey := getBody(t, ts.URL+"/v1/results/"+j.Key)
	if code != http.StatusOK || !bytes.Equal(byKey, want) {
		t.Fatalf("fetch by key: status %d", code)
	}

	// Identical resubmission: 200 (not 202), cached, zero extra runs.
	runs := s.Runs()
	j2, resp2 := postSpec(t, ts, spec)
	if resp2.StatusCode != http.StatusOK || !j2.Cached || j2.State != string(StateDone) {
		t.Fatalf("resubmission: status %d, %+v", resp2.StatusCode, j2)
	}
	if s.Runs() != runs {
		t.Fatal("cache-hit resubmission invoked the simulator")
	}

	// JSON rendering decodes to the same Result.
	code, hdr, jsonBody := getBody(t, ts.URL+"/v1/results/"+j.Key+"?format=json")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("json fetch: status %d, type %q", code, hdr.Get("Content-Type"))
	}
	var rendered struct {
		Workload string `json:"Workload"`
		Commits  uint64 `json:"Commits"`
	}
	if err := json.Unmarshal(jsonBody, &rendered); err != nil {
		t.Fatal(err)
	}
	if rendered.Workload != direct.Workload || rendered.Commits != direct.Commits {
		t.Fatalf("json rendering mismatch: %+v vs %s/%d", rendered, direct.Workload, direct.Commits)
	}

	// Stats reflect the traffic.
	code, _, statsBody := getBody(t, ts.URL+"/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	var st Stats
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.Submitted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, resp := postSpec(t, ts, Spec{Workload: "no-such"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload: status %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"kmeans","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", resp.StatusCode)
	}
	// A size past its cap is a 400 naming the limit, not a 128 GiB
	// signature in a pool worker (a runtime throw: the process used to die).
	// shards is no field at all: the serial engine runs every spec.
	for limit, body := range map[string]string{
		"signature_bits must be in 0..65536": `{"workload":"kmeans","signature_bits":1099511627776}`,
		"tx_per_cpu must be in 0..10000":     `{"workload":"kmeans","tx_per_cpu":1099511627776}`,
		`unknown field "shards"`:             `{"workload":"kmeans","shards":2}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, limit) {
			t.Fatalf("%s: status %d %q, want 400 naming %q", body, resp.StatusCode, msg.Error, limit)
		}
	}
	if s.Runs() != 0 {
		t.Fatalf("a refused spec reached the pool: runs = %d", s.Runs())
	}
	var absent Key
	absent[0] = 0xAB
	for _, path := range []string{
		"/v1/jobs/j999999", "/v1/jobs/j999999/result",
		"/v1/jobs/" + absent.String(), "/v1/jobs/" + absent.String() + "/result",
	} {
		if code, _, _ := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("%s: status %d", path, code)
		}
	}

	// A job cannot be withdrawn or streamed: on a job that exists, DELETE
	// is a method the path does not take and /stream is no path at all.
	j, _ := postSpec(t, ts, fastSpec(905))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/jobs/%s: status %d, want 405", j.ID, dresp.StatusCode)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+j.ID+"/stream"); code != http.StatusNotFound {
		t.Fatalf("/v1/jobs/%s/stream: status %d, want 404", j.ID, code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+j.ID+"?wait=1"); code != http.StatusOK {
		t.Fatalf("long-poll of the same job: status %d", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/results/nothex"); code != http.StatusBadRequest {
		t.Fatalf("malformed key: status %d", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/results/"+absent.String()); code != http.StatusGone {
		t.Fatalf("absent key: status %d", code)
	}
}

// TestHTTPSubmitBodyLimit pins the POST /v1/jobs body bound: a spec past
// maxSpecBytes is refused with 413 before it is buffered, and one that
// fills the limit to the last byte is served like any other.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"workload":"` + strings.Repeat("a", 2*maxSpecBytes) + `"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", code)
	}
	const head, tail = `{"workload":"kmeans","tx_per_cpu":1`, `}`
	full := head + strings.Repeat(" ", maxSpecBytes-len(head)-len(tail)) + tail
	if code := post(full); code != http.StatusAccepted {
		t.Fatalf("spec of exactly %d bytes: status %d, want 202", len(full), code)
	}
}

// TestHTTPBackpressure drives the full-queue path over the wire: the third
// submission gets 429 with a Retry-After hint, and once the queue drains a
// resubmission succeeds.
func TestHTTPBackpressure(t *testing.T) {
	s, gate := gatedService(t, Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(s.Drain)
	t.Cleanup(ts.Close)

	j1, resp := postSpec(t, ts, fastSpec(910))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	<-gate.arrived // worker holds j1's task
	if _, resp := postSpec(t, ts, fastSpec(911)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}
	_, resp429 := postSpec(t, ts, fastSpec(912))
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d", resp429.StatusCode)
	}
	if got := resp429.Header.Get("Retry-After"); got != retryAfterSeconds {
		t.Fatalf("Retry-After = %q", got)
	}

	gate.release <- struct{}{} // j1 simulates; queue slot frees
	code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+j1.ID+"?wait=1")
	if code != http.StatusOK {
		t.Fatalf("poll status %d", code)
	}
	<-gate.arrived // second task at the gate; slot is free again
	if _, resp := postSpec(t, ts, fastSpec(912)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry after drain: status %d", resp.StatusCode)
	}
	gate.release <- struct{}{}
	<-gate.arrived
	gate.release <- struct{}{}
}

// TestLongPollOutlivesWriteTimeout: under a server write timeout that has
// always already expired, an ordinary response is cut off, but ?wait=1
// clears its own deadline and delivers the terminal state of a job that
// was still queued when the poll began.
func TestLongPollOutlivesWriteTimeout(t *testing.T) {
	s, gate := gatedService(t, Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.WriteTimeout = time.Nanosecond
	ts.Start()
	t.Cleanup(s.Drain)
	t.Cleanup(ts.Close)

	j, err := s.Submit(fastSpec(930))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.arrived
	if resp, err := http.Get(ts.URL + "/v1/jobs/" + j.Key.String()); err == nil {
		resp.Body.Close()
		t.Fatalf("plain GET got status %d through an expired write deadline", resp.StatusCode)
	}
	go func() { gate.release <- struct{}{} }()
	code, _, body := getBody(t, ts.URL+"/v1/jobs/"+j.Key.String()+"?wait=1")
	if code != http.StatusOK || !strings.Contains(string(body), `"done"`) {
		t.Fatalf("long-poll: status %d, body %s", code, body)
	}
}

// TestJobIDIsContentKey: a job is addressed by its content key, so two
// POSTs of one spec answer the same id, and it is the key. Nothing else
// remembers a job: once a memory-only cache has evicted the artifact and
// no flight holds the key, its status is 404.
func TestJobIDIsContentKey(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, CacheEntries: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, _ := postSpec(t, ts, fastSpec(960))
	second, _ := postSpec(t, ts, fastSpec(960))
	if first.ID == "" || first.ID != first.Key || second.ID != first.ID {
		t.Fatalf("two POSTs of one spec: ids %q and %q, key %q", first.ID, second.ID, first.Key)
	}
	poll := func(id string) (int, jobJSON) {
		t.Helper()
		code, _, body := getBody(t, ts.URL+"/v1/jobs/"+id+"?wait=1")
		var j jobJSON
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &j); err != nil {
				t.Fatal(err)
			}
		}
		return code, j
	}
	if code, j := poll(first.ID); code != http.StatusOK || j.State != string(StateDone) || j.ID != first.ID {
		t.Fatalf("status of %s: %d %+v", first.ID, code, j)
	}

	// A second key's artifact evicts the first from the one-entry cache.
	other, _ := postSpec(t, ts, fastSpec(961))
	if code, j := poll(other.ID); code != http.StatusOK || j.State != string(StateDone) {
		t.Fatalf("status of the evicting job: %d %+v", code, j)
	}
	// Its flight has left the table, so the cache answers for it now.
	code, _, body := getBody(t, ts.URL+"/v1/jobs/"+other.ID)
	if code != http.StatusOK || !strings.Contains(string(body), `"cached": true`) {
		t.Fatalf("status of the evicting job after its run: %d %s", code, body)
	}
	for _, path := range []string{"/v1/jobs/" + first.ID, "/v1/jobs/" + first.ID + "/result"} {
		if code, _, _ := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Fatalf("%s after eviction: status %d, want 404", path, code)
		}
	}
}

// TestJobReplyMatchesEncoder: writeJob writes what writeJSON writes for
// renderJob — status, headers and body, byte for byte — for every state a
// reply can carry, cached or not. A failed job's free-text error keeps
// encoding/json's escaping.
func TestJobReplyMatchesEncoder(t *testing.T) {
	closed := func() chan struct{} { c := make(chan struct{}); close(c); return c }
	queued := &flight{started: make(chan struct{}), done: make(chan struct{})}
	running := &flight{started: closed(), done: make(chan struct{})}
	finished := &flight{started: closed(), done: closed()}
	failed := &flight{started: closed(), done: closed(),
		err: errors.New("sim: \"hung\" <at cycle 7>\nsecond line")}

	key := testKey(0xa7)
	for _, f := range []*flight{queued, running, finished, nil, failed} {
		for _, cached := range []bool{false, true} {
			job := &Job{Key: key, Cached: cached, flight: f}
			st, _, _ := job.Snapshot()
			want, got := httptest.NewRecorder(), httptest.NewRecorder()
			writeJSON(want, http.StatusAccepted, renderJob(job))
			writeJob(got, http.StatusAccepted, job)
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) ||
				!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s job (cached=%v):\nwriteJob  %d %v\n%s\nwriteJSON %d %v\n%s", st, cached,
					got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
			}
			if f == failed && !strings.Contains(got.Body.String(), `\"hung\" \u003cat cycle 7\u003e\nsecond line`) {
				t.Fatalf("failed job's error is not escaped:\n%s", got.Body)
			}
		}
	}
}

// Warm-hit allocation ceilings, at their measured values: a cached
// Service.Submit, and each handler on serve_warm's path through httptest,
// less what the request and recorder cost with a handler that does
// nothing.
const (
	submitHitAllocs = 4
	postHitAllocs   = 20
	getHitAllocs    = 10
)

// raceEnabled is set by race_test.go. The race detector changes what
// allocates (its sync.Pool, for one, drops items at random), so the
// ceilings hold only without it.
var raceEnabled bool

func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under the race detector")
	}
	s := newTestService(t, Options{Workers: 1})
	spec := fastSpec(1)
	key := specKey(t, spec, s.codeVersion)
	s.cache.Put(key, testArtifact(t, 1))

	if n := testing.AllocsPerRun(100, func() { s.Submit(spec) }); n > submitHitAllocs {
		t.Errorf("cached Service.Submit: %v allocations, ceiling %d", n, submitHitAllocs)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	for _, c := range []struct {
		method, target string
		body           []byte
		ceiling        float64
	}{
		{http.MethodPost, "/v1/jobs", body, postHitAllocs},
		{http.MethodGet, "/v1/results/" + key.String(), nil, getHitAllocs},
	} {
		var rec *httptest.ResponseRecorder
		serve := func(h http.Handler) func() {
			return func() {
				var rd io.Reader
				if c.body != nil {
					rd = bytes.NewReader(c.body)
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, rd))
			}
		}
		harness := testing.AllocsPerRun(100, serve(nop))
		n := testing.AllocsPerRun(100, serve(h)) - harness
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d, want a 200 hit", c.method, c.target, rec.Code)
		}
		if n > c.ceiling {
			t.Errorf("%s %s: %v allocations past the harness's %v, ceiling %v",
				c.method, c.target, n, harness, c.ceiling)
		}
	}
}
