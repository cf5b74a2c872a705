package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	puno "repro"
	"repro/internal/serve"
)

const (
	serveTxPer = 4  // tx_per_cpu of every request: simulations of 1 to 30 ms
	burstPosts = 64 // identical concurrent POSTs of the singleflight check
)

// shape is one of the sixteen spec shapes requests rotate over: the eight
// workload names under Baseline and under PUNO.
type shape struct {
	workload string
	scheme   puno.Scheme
}

func shapes() []shape {
	var out []shape
	for _, p := range puno.Workloads() {
		for _, s := range []puno.Scheme{puno.SchemeBaseline, puno.SchemePUNO} {
			out = append(out, shape{p.Name(), s})
		}
	}
	return out
}

// runSpec is what the service must resolve the shape's request to — built
// here, from the exported API, so the reference artifacts do not lean on the
// code they check.
func (s shape) runSpec(seed uint64) (puno.RunSpec, error) {
	wl, err := puno.WorkloadByName(s.workload)
	if err != nil {
		return puno.RunSpec{}, err
	}
	cfg := puno.DefaultConfig()
	cfg.MaxCycles = hangLimit
	cfg.Scheme = s.scheme
	cfg.Seed = seed
	return puno.RunSpec{Config: cfg, Workload: wl.WithTxPerCPU(serveTxPer)}, nil
}

// request is one generated input: the POST body, and what the artifact it
// leads to must be — computed by a direct in-process run when the inputs
// were generated.
type request struct {
	shape   shape
	seed    uint64
	body    []byte
	sum     [sha256.Size]byte
	cycles  uint64
	commits uint64
	key     string // serve_warm: the content address, learnt at priming
}

// serveWorkload is serve_cold or serve_warm: an in-process serve.Service
// behind a real http.Server on a loopback port, driven by W closed-loop
// clients over keep-alive connections. Client and server share the W
// processors, as they would on one small host.
type serveWorkload struct {
	e      *env
	cold   bool
	shapes []shape

	// reqs is the key cycle. serve_cold walks it in order; it is longer
	// than the LRU holds, so by the time a key comes round again it has
	// been evicted and every POST is a miss that simulates. serve_warm
	// primes all of it (it fits the LRU) and then draws from it uniformly.
	// burstReq is used by the singleflight check alone.
	reqs     []request
	burstReq request
	notes    []string

	svc    *serve.Service
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	hc     *http.Client
	base   string

	next     atomic.Uint64 // serve_cold: requests started
	rejected atomic.Uint64 // 429 replies
	rngs     []*rand.Rand  // serve_warm: one key picker per client

	setupFailures []string
	runsAtStart   uint64      // serve_warm: Service.Runs() when set-up ended
	tracedFrom    serve.Stats // counters when the traced window began
	tracedOnce    sync.Once
}

func newServeWorkload(name string, e *env) (*serveWorkload, error) {
	if name != "serve_cold" && name != "serve_warm" {
		return nil, fmt.Errorf("unknown serve workload %q", name)
	}
	return &serveWorkload{e: e, cold: name == "serve_cold", shapes: shapes()}, nil
}

func (w *serveWorkload) clients() int { return w.e.workers }

// prepare generates the requests from -seed and simulates each one directly
// for its reference artifact. A candidate seed whose run exceeds hangLimit is
// replaced (see hangLimit): the service has no cycle limit to give a
// request, so one such seed would pin a pool worker for minutes.
func (w *serveWorkload) prepare() error {
	n := w.e.sz.primeKeys
	if w.cold {
		n = w.e.sz.coldKeys
	}
	reqs := make([]request, n+1)
	todo := make([]int, len(reqs))
	for i := range todo {
		todo[i] = i
	}
	skipped := 0
	for try := 0; len(todo) > 0; try++ {
		if try == maxSeedTries {
			return fmt.Errorf("%d requests found no seed in %d tries that stays under %d cycles", len(todo), try, hangLimit)
		}
		specs := make([]puno.RunSpec, len(todo))
		for j, i := range todo {
			// Never 0, which the service reads as "the default seed".
			seed := mix(w.e.seed, uint64(i*maxSeedTries+try)) | 1
			reqs[i].shape, reqs[i].seed = w.shapes[i%len(w.shapes)], seed
			var err error
			if specs[j], err = reqs[i].shape.runSpec(seed); err != nil {
				return err
			}
		}
		results, err := puno.RunSpecs(context.Background(), specs, puno.SweepOptions{Parallel: w.e.workers})
		if err != nil && !isHang(err) {
			return err
		}
		var again []int
		for j, i := range todo {
			res := results[j]
			if res == nil {
				again = append(again, i)
				continue
			}
			r := &reqs[i]
			raw, err := puno.EncodeResult(res)
			if err != nil {
				return err
			}
			r.sum, r.cycles, r.commits = sha256.Sum256(raw), uint64(res.Cycles), res.Commits
			r.body, err = json.Marshal(serve.Spec{Workload: r.shape.workload, Scheme: r.shape.scheme.String(),
				Seed: r.seed, TxPerCPU: serveTxPer})
			if err != nil {
				return err
			}
		}
		skipped += len(again)
		todo = again
	}
	if skipped > 0 {
		w.notes = append(w.notes, fmt.Sprintf("input generation skipped %d candidate seeds whose run exceeds %d cycles", skipped, hangLimit))
	}
	w.reqs, w.burstReq = reqs[:n], reqs[n]
	return nil
}

func (w *serveWorkload) setUp() error {
	var err error
	opts := serve.Options{CodeVersion: "bench"}
	if w.cold {
		// A quarter of the default LRU, so that a key cycle short enough
		// to simulate twice per run (once for the references) outruns it.
		// Eviction runs on every Put either way.
		opts.CacheEntries = w.e.sz.coldCache
	}
	w.svc, err = serve.New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.srv = &http.Server{Handler: w.svc.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.srv.Serve(ln) // returns once tearDown calls Shutdown
	}()
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 128}}
	w.next.Store(0)
	w.setupFailures = nil

	if err := w.burst(); err != nil {
		return err
	}
	if w.cold {
		// Warm the pool's arenas and the connections on the head of the
		// cycle; the window carries on from where this stops.
		warm := runWindowN(w.e.workers, w.e.sz.warmPasses*len(w.shapes), func(c *client) error {
			return w.coldOp(c, nil, 0)
		})
		if _, failed, _, _, errs := warm.totals(); failed > 0 {
			return fmt.Errorf("warm-up: %d ops failed: %v", failed, errs)
		}
		return nil
	}
	if err := w.prime(); err != nil {
		return err
	}
	w.runsAtStart = w.svc.Runs()
	return nil
}

func (w *serveWorkload) tearDown() {
	// Client side first: a connection the transport dialled in the burst
	// but never used sits in StateNew at the server, and Shutdown would
	// wait five seconds before treating it as idle.
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.srv.Shutdown(ctx)
		cancel()
		<-w.served
		w.srv = nil
	}
	if w.svc != nil {
		w.svc.Drain()
		w.svc = nil
	}
}

// runWindowN runs n closed-loop clients until they have started total ops
// between them (set-up work, not timed as a window).
func runWindowN(n, total int, body func(c *client) error) window {
	var started atomic.Int64
	return runWindow(n, time.Hour, nil, func(c *client) error {
		if started.Add(1) > int64(total) {
			return errStop
		}
		c.setup = true
		return body(c)
	})
}

// burst is the singleflight check: many identical concurrent submissions
// must run exactly one simulation.
func (w *serveWorkload) burst() error {
	before := w.svc.Runs()
	ids := make([]string, burstPosts)
	errs := make([]error, burstPosts)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st int
			var job jobReply
			if st, job, errs[i] = w.post(w.burstReq.body); errs[i] == nil && st != http.StatusAccepted && st != http.StatusOK {
				errs[i] = fmt.Errorf("burst POST answered %d", st)
			}
			ids[i] = job.ID
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, id := range ids {
		if err := w.wait(id); err != nil {
			return err
		}
	}
	if got := w.svc.Runs() - before; got != 1 {
		w.setupFailures = append(w.setupFailures,
			fmt.Sprintf("%d identical concurrent POSTs ran %d simulations, want 1", len(ids), got))
	}
	return nil
}

// prime fills serve_warm's working set through the front door.
func (w *serveWorkload) prime() error {
	var started atomic.Int64
	win := runWindowN(w.e.workers, len(w.reqs), func(c *client) error {
		r := &w.reqs[started.Add(1)-1]
		st, job, err := w.post(r.body)
		if err != nil || st != http.StatusAccepted {
			return fmt.Errorf("priming POST: status %d, err %v", st, err)
		}
		if err := w.wait(job.ID); err != nil {
			return err
		}
		r.key = job.Key
		return w.fetch(c, r, "/v1/results/"+r.key, nil, 0)
	})
	if _, failed, _, _, errs := win.totals(); failed > 0 {
		return fmt.Errorf("priming: %d requests failed: %v", failed, errs)
	}
	w.rngs = make([]*rand.Rand, w.e.workers)
	for c := range w.rngs {
		w.rngs[c] = rand.New(rand.NewPCG(w.e.seed, uint64(c)))
	}
	return nil
}

// jobReply is the service's job JSON.
type jobReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

func (w *serveWorkload) do(req *http.Request) (int, []byte, error) {
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (w *serveWorkload) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return w.do(req)
}

func (w *serveWorkload) post(body []byte) (int, jobReply, error) {
	var job jobReply
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, job, err
	}
	req.Header.Set("Content-Type", "application/json")
	st, raw, err := w.do(req)
	if err != nil {
		return st, job, err
	}
	if st == http.StatusTooManyRequests {
		w.rejected.Add(1)
	}
	return st, job, json.Unmarshal(raw, &job)
}

// wait long-polls a job to its terminal state, which must be "done".
func (w *serveWorkload) wait(id string) error {
	st, raw, err := w.get("/v1/jobs/" + id + "?wait=1")
	if err != nil {
		return err
	}
	var job jobReply
	if err := json.Unmarshal(raw, &job); err != nil {
		return err
	}
	if st != http.StatusOK || job.State != string(serve.StateDone) {
		return fmt.Errorf("job %s: status %d, state %q, error %q", id, st, job.State, job.Error)
	}
	return nil
}

// fetch GETs r's artifact from path and checks it: the bytes a direct run
// of the same spec produced, and a punores/1 artifact DecodeResult accepts.
func (w *serveWorkload) fetch(c *client, r *request, path string, tr *tracer, op int32) error {
	s := tr.begin("serve.http_fetch", op)
	st, art, err := w.get(path)
	tr.end(s)
	if err != nil || st != http.StatusOK {
		return fmt.Errorf("fetch: status %d, err %v", st, err)
	}
	if w.e.corruptFetch && !c.setup && len(art) > 0 {
		art[len(art)/2] ^= 1
	}
	if sha256.Sum256(art) != r.sum {
		return fmt.Errorf("%s/%v seed %d: fetched artifact differs from a direct run's", r.shape.workload, r.shape.scheme, r.seed)
	}
	if _, err := puno.DecodeResult(art); err != nil {
		return fmt.Errorf("fetched artifact does not decode: %w", err)
	}
	c.cycles += r.cycles
	c.commits += r.commits
	return nil
}

func (w *serveWorkload) op(c *client, tr *tracer, op int32) error {
	if tr != nil {
		w.tracedOnce.Do(func() { w.tracedFrom = w.svc.Stats() })
	}
	if w.cold {
		return w.coldOp(c, tr, op)
	}
	return w.warmOp(c, tr, op)
}

// coldOp is the write path: submit a spec the cache does not hold, wait for
// its simulation, fetch the artifact.
func (w *serveWorkload) coldOp(c *client, tr *tracer, op int32) error {
	r := &w.reqs[(w.next.Add(1)-1)%uint64(len(w.reqs))]
	s := tr.begin("serve.http_post", op)
	st, job, err := w.post(r.body)
	tr.end(s)
	if err != nil || st != http.StatusAccepted {
		return fmt.Errorf("POST: status %d (want 202), err %v", st, err)
	}
	s = tr.begin("serve.http_wait", op)
	err = w.wait(job.ID)
	tr.end(s)
	if err != nil {
		return err
	}
	return w.fetch(c, r, "/v1/jobs/"+job.ID+"/result", tr, op)
}

// warmOp is the read path: submit a primed spec (the reply must say it was
// served from the cache), fetch the artifact by its content address.
func (w *serveWorkload) warmOp(c *client, tr *tracer, op int32) error {
	r := &w.reqs[w.rngs[c.id].IntN(len(w.reqs))]
	s := tr.begin("serve.http_post", op)
	st, job, err := w.post(r.body)
	tr.end(s)
	if err != nil || st != http.StatusOK || !job.Cached || job.Key != r.key {
		return fmt.Errorf("POST: status %d (want 200), cached %v, err %v", st, job.Cached, err)
	}
	return w.fetch(c, r, "/v1/results/"+r.key, tr, op)
}

// verify reports what set-up found and, for serve_warm, demands that the
// window ran no simulation at all. Every fetched artifact was already
// checked against its reference as it arrived.
func (w *serveWorkload) verify() (failed int, notes []string) {
	failed = len(w.setupFailures)
	notes = append(w.notes, w.setupFailures...)
	if !w.cold {
		if grew := w.svc.Runs() - w.runsAtStart; grew != 0 {
			failed += int(grew)
			notes = append(notes, fmt.Sprintf("%d simulations ran during a window of cache hits", grew))
		}
	}
	return failed, notes
}

// digest covers the reference artifacts of every generated request.
func (w *serveWorkload) digest() string {
	h := sha256.New()
	for i := range w.reqs {
		h.Write(w.reqs[i].sum[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (w *serveWorkload) layers(tr *tracer, _ time.Duration, _ float64, lm layerMetrics) error {
	lm.set("serve.http_post_us", medianOf(tr, "serve.http_post", 1e3))
	lm.set("serve.http_wait_ms", medianOf(tr, "serve.http_wait", 1e6))
	lm.set("serve.http_fetch_us", medianOf(tr, "serve.http_fetch", 1e3))
	// p99 is shown even when the window was too short to put ten samples
	// beyond it; the trace file has every op to judge it by.
	p99, _ := percentile(tr.durations("op"), 0.99, 0)
	lm.set("serve.http_p99_ms", p99/1e6)
	if !w.cold {
		// The honest version of the "3.3 us warm hit": what the socket,
		// the mux and JSON add to a cached Service.Submit.
		lm.set("serve.http_overhead_us", lm.get("serve.http_post_us")-lm.get("serve.submit_hit_us"))
	}

	now, from := w.svc.Stats(), w.tracedFrom
	hits := float64(now.Cache.Hits + now.Cache.DiskHits - from.Cache.Hits - from.Cache.DiskHits)
	misses := float64(now.Cache.Misses - from.Cache.Misses)
	lm.set("serve.runs", float64(now.Runs-from.Runs))
	lm.set("serve.submitted", float64(now.Submitted-from.Submitted))
	lm.set("serve.collapsed", float64(now.Collapsed-from.Collapsed))
	lm.set("serve.cache_hits", hits)
	lm.set("serve.cache_misses", misses)
	lm.set("serve.hit_ratio", ratio(hits, hits+misses))
	lm.set("serve.rejected_429", float64(w.rejected.Load()))

	// The simulations happen behind the socket; the machine layer and the
	// simulated counts are measured directly, on the first request of each
	// of the sixteen shapes.
	specs := make([]puno.RunSpec, len(w.shapes))
	for i := range specs {
		var err error
		if specs[i], err = w.reqs[i].shape.runSpec(w.reqs[i].seed); err != nil {
			return err
		}
	}
	if err := probeMachine(tr, specs, w.e.sz.probePasses, false, lm); err != nil {
		return err
	}
	return probeTrace(specs[0], lm)
}
