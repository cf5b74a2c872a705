package serve

import (
	"errors"
	"fmt"
	"sync"

	puno "repro"
	"repro/internal/coherence"
)

// ErrBadSpec wraps submission validation failures (HTTP 400).
var ErrBadSpec = errors.New("serve: invalid spec")

// Spec is the JSON body of a job submission: a named STAMP workload plus
// the experiment knobs the sweep CLI exposes. Zero-valued fields keep the
// paper's Table II defaults.
type Spec struct {
	Workload      string `json:"workload"`
	Scheme        string `json:"scheme,omitempty"`
	Seed          uint64 `json:"seed,omitempty"`
	TxPerCPU      int    `json:"tx_per_cpu,omitempty"`
	Nodes         int    `json:"nodes,omitempty"`
	SignatureBits int    `json:"signature_bits,omitempty"`
}

// Submission limits, constants like wire.Cursor.Count's: a spec is refused
// before any of its sizes reaches an allocation or a loop bound. Each is at
// least ten times the largest value a profile, test, experiment or
// benchmark uses (profiles top out at 250 transactions per CPU, the
// signature ablation at 2048 bits); nodes is bounded by coherence.MaxNodes.
const (
	maxTxPerCPU      = 10_000
	maxSignatureBits = 1 << 16
)

// resolve validates the spec and produces the fully resolved run point:
// the RunSpec the pool executes and the profile the cache key encodes.
func (sp Spec) resolve() (puno.RunSpec, *puno.Profile, error) {
	fail := func(format string, args ...any) (puno.RunSpec, *puno.Profile, error) {
		return puno.RunSpec{}, nil, fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	wl, err := puno.WorkloadByName(sp.Workload)
	if err != nil {
		return fail("%v", err)
	}
	if sp.TxPerCPU < 0 || sp.TxPerCPU > maxTxPerCPU {
		return fail("tx_per_cpu must be in 0..%d, got %d", maxTxPerCPU, sp.TxPerCPU)
	}
	if sp.TxPerCPU > 0 {
		wl = wl.WithTxPerCPU(sp.TxPerCPU)
	}
	cfg := puno.DefaultConfig()
	if sp.Scheme != "" {
		sch, err := puno.SchemeByName(sp.Scheme)
		if err != nil {
			return fail("%v", err)
		}
		cfg.Scheme = sch
	}
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	if sp.Nodes != 0 {
		// The sharer bitset's width bounds the machine; past it the
		// directory panics, and an unbounded count would spin the
		// square-root search below.
		if sp.Nodes < 0 || sp.Nodes > coherence.MaxNodes {
			return fail("nodes must be in 1..%d, got %d", coherence.MaxNodes, sp.Nodes)
		}
		w := 0
		for w*w < sp.Nodes {
			w++
		}
		if w*w != sp.Nodes {
			return fail("nodes must be a perfect square (mesh is WxW), got %d", sp.Nodes)
		}
		cfg.Nodes = sp.Nodes
		cfg.Mesh.Width = w
		cfg.Mesh.Height = w
	}
	if sp.SignatureBits < 0 || sp.SignatureBits > maxSignatureBits {
		return fail("signature_bits must be in 0..%d, got %d", maxSignatureBits, sp.SignatureBits)
	}
	cfg.SignatureBits = sp.SignatureBits
	return puno.RunSpec{Config: cfg, Workload: wl}, wl, nil
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states: queued → running → done|failed. A submission is
// never withdrawn, so there is no other way out.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed
}

// Job is one submission, addressed by its content key: an immutable,
// read-only view of the flight that computes the key. It owns no state of
// its own — the lifecycle is read off the flight's channels, and terminal
// result bytes live in the cache under Key.
type Job struct {
	Key    Key
	Cached bool // resolved straight from the cache, at submit or lookup time

	flight *flight // nil when Cached: the job was born done
}

// Snapshot returns the current state, the error message (failed jobs), and
// the channel whose close is the next transition — the wait primitive
// behind long-polling. Terminal jobs get a nil channel: nothing follows.
func (j *Job) Snapshot() (JobState, string, <-chan struct{}) {
	f := j.flight
	if f == nil {
		return StateDone, "", nil
	}
	select {
	case <-f.done:
		if f.err != nil {
			return StateFailed, f.err.Error(), nil
		}
		return StateDone, "", nil
	default:
	}
	select {
	case <-f.started:
		return StateRunning, "", f.done
	default:
		return StateQueued, "", f.started
	}
}

// Options configures a Service.
type Options struct {
	CacheEntries int    // in-memory LRU capacity (<=0: 1024)
	CacheDir     string // disk tier root ("" disables)
	Workers      int    // pool size (<=0: GOMAXPROCS)
	QueueDepth   int    // bounded queue slots (<=0: 4x workers)
	CodeVersion  string // cache-key code version ("" : DetectCodeVersion)
}

// Stats is the /v1/stats payload.
type Stats struct {
	CodeVersion string     `json:"code_version"`
	Runs        uint64     `json:"runs"`
	Submitted   uint64     `json:"submitted"`
	Collapsed   uint64     `json:"collapsed_flights"`
	QueueLen    int        `json:"queue_len"`
	QueueCap    int        `json:"queue_cap"`
	Cache       CacheStats `json:"cache"`
}

// Service ties the three layers together behind Submit: cache probe, then
// singleflight join, then pool enqueue — all synchronous, so backpressure
// (ErrBusy) is reported on the submit path, before a job exists.
//
// mu guards the flight table and the counters, and is never held across
// I/O: the cache's disk tier is probed before it is taken and written (by
// the worker) without it.
type Service struct {
	cache       *Cache
	pool        *Pool
	codeVersion string

	mu        sync.Mutex
	flights   map[Key]*flight // live and failed flights; a successful one leaves once cached
	submitted uint64
	collapsed uint64
}

// New builds and starts a service (the pool's workers spin up
// immediately).
func New(opts Options) (*Service, error) {
	return newService(opts, nil)
}

// newService is New plus the deterministic worker gate tests install.
func newService(opts Options, gate *testGate) (*Service, error) {
	cache, err := NewCache(opts.CacheEntries, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	cv := opts.CodeVersion
	if cv == "" {
		cv = DetectCodeVersion()
	}
	return &Service{
		cache:       cache,
		pool:        newPool(opts.Workers, opts.QueueDepth, gate),
		codeVersion: cv,
		flights:     make(map[Key]*flight),
	}, nil
}

// Submit resolves a spec and returns its job. Every submission is exactly
// one of:
//
//   - hit: the artifact is cached, the job is born terminal (StateDone,
//     Cached=true) and the simulator is never touched;
//   - collapsed: a flight for the key is live or has failed, and the job
//     joins it — a failed key is not simulated again;
//   - leader: the job's flight is created and its task enqueued — or, when
//     the queue is full, Submit fails with ErrBusy and no flight is left
//     behind.
//
// Both cache tiers are probed before mu is taken, so a slow disk read
// delays only its own submission. A flight that finished between that
// probe and the lock has left the table, but its Cache.Put came first:
// the memory-tier re-probe under the lock finds the artifact, so a key is
// simulated at most once while its artifact is resident.
func (s *Service) Submit(spec Spec) (*Job, error) {
	rs, prof, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	key, err := BuildKey(s.codeVersion, rs.Config, prof)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	_, hit := s.cache.Get(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.submitted++
	if hit {
		return &Job{Key: key, Cached: true}, nil
	}
	if f, ok := s.flights[key]; ok {
		s.collapsed++
		return &Job{Key: key, flight: f}, nil
	}
	if _, ok := s.cache.lookup(key); ok {
		return &Job{Key: key, Cached: true}, nil
	}
	f := &flight{started: make(chan struct{}), done: make(chan struct{})}
	task := &Task{
		Spec:    rs,
		OnStart: func() { close(f.started) },
		OnDone:  func(res *puno.Result, err error) { s.finish(key, f, res, err) },
	}
	if err := s.pool.TryEnqueue(task); err != nil {
		return nil, err
	}
	s.flights[key] = f
	return &Job{Key: key, flight: f}, nil
}

// finish runs on the worker when a flight's simulation returns: encode,
// store, leave the table, publish — in that order, so a submitter that
// finds no flight finds the artifact (see Submit). A failed flight keeps
// its place in the table: the next submission of the key joins it.
func (s *Service) finish(key Key, f *flight, res *puno.Result, err error) {
	if err == nil {
		var data []byte
		if data, err = puno.EncodeResult(res); err == nil {
			s.cache.Put(key, data)
			s.mu.Lock()
			delete(s.flights, key)
			s.mu.Unlock()
		}
	}
	f.err = err
	close(f.done)
}

// Job looks up a job by id, its key's hex: the key's flight answers
// (queued, running or failed), else the cache, probed without mu (done;
// finish stores the artifact before the flight leaves). Neither: unknown.
func (s *Service) Job(id string) (*Job, bool) {
	key, err := ParseKey(id)
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	f, ok := s.flights[key]
	s.mu.Unlock()
	if ok {
		return &Job{Key: key, flight: f}, true
	}
	if !s.cache.has(key) {
		return nil, false
	}
	return &Job{Key: key, Cached: true}, true
}

// Result fetches an artifact straight from the cache by key.
func (s *Service) Result(k Key) ([]byte, bool) { return s.cache.Get(k) }

// Runs reports the pool's simulation count.
func (s *Service) Runs() uint64 { return s.pool.Runs() }

// Stats snapshots every layer's counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	submitted, collapsed := s.submitted, s.collapsed
	s.mu.Unlock()
	return Stats{
		CodeVersion: s.codeVersion,
		Runs:        s.pool.Runs(),
		Submitted:   submitted,
		Collapsed:   collapsed,
		QueueLen:    s.pool.QueueLen(),
		QueueCap:    s.pool.QueueCap(),
		Cache:       s.cache.Stats(),
	}
}

// Drain stops accepting work and waits for queued tasks to finish (their
// results land in the cache; see Pool.Drain). Call after the HTTP listener
// has stopped accepting requests. Every flight's finish has returned by
// the time the pool has drained, so every job is terminal.
func (s *Service) Drain() { s.pool.Drain() }
