package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	puno "repro"
)

// ErrBusy is returned by TryEnqueue when the bounded queue is full. The
// HTTP layer maps it to 429 + Retry-After: shedding load at submit time is
// what keeps a cold-miss stampede from queueing unbounded simulation work.
var ErrBusy = errors.New("serve: simulation queue full")

// ErrDraining is returned once Drain has begun: the server is shutting
// down and accepts no new work.
var ErrDraining = errors.New("serve: server draining")

// Pool is the persistent worker pool. Each worker goroutine owns one
// reusable puno.Arena — the same Machine.Reset machinery a sweep worker
// uses — so steady-state requests pay simulation time, not machine
// construction.
type Pool struct {
	queue chan *Task
	wg    sync.WaitGroup
	runs  atomic.Uint64

	mu     sync.RWMutex
	closed bool

	// run is (*puno.Arena).Run; tests swap it, before the first task is
	// enqueued, to make a simulation fail.
	run func(*puno.Arena, puno.RunSpec) (*puno.Result, error)

	// gate, when non-nil (tests only), makes worker scheduling
	// deterministic: a worker announces each dequeued task on arrived and
	// holds until release, letting tests construct full-queue and
	// join-while-queued interleavings without timing dependence.
	gate *testGate
}

type testGate struct {
	arrived chan struct{}
	release chan struct{}
}

// Task is one unit of pool work. An accepted task always runs: OnStart is
// called when a worker begins simulating Spec, OnDone with the outcome.
type Task struct {
	Spec    puno.RunSpec
	OnStart func()
	OnDone  func(res *puno.Result, err error)
}

// newPool starts workers goroutines (<=0 selects GOMAXPROCS) over a bounded
// queue of depth slots (<=0 selects 4x the worker count). gate is non-nil
// only in tests; it is installed before any worker starts, so workers may
// read it unsynchronized.
func newPool(workers, depth int, gate *testGate) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 4 * workers
	}
	p := &Pool{queue: make(chan *Task, depth), run: (*puno.Arena).Run, gate: gate}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	arena := puno.NewArena()
	for t := range p.queue {
		if g := p.gate; g != nil {
			g.arrived <- struct{}{}
			<-g.release
		}
		if t.OnStart != nil {
			t.OnStart()
		}
		res, err := p.run(arena, t.Spec)
		p.runs.Add(1)
		t.OnDone(res, err)
	}
}

// TryEnqueue submits a task without blocking: ErrBusy when the queue is
// full (the backpressure signal), ErrDraining after Drain has begun.
func (p *Pool) TryEnqueue(t *Task) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrDraining
	}
	select {
	case p.queue <- t:
		return nil
	default:
		return ErrBusy
	}
}

// Drain closes the queue and waits for the workers to finish. Tasks
// already queued still execute — their results land in the cache, so work
// accepted before shutdown is never thrown away — and every OnDone has
// returned by the time Drain does.
func (p *Pool) Drain() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Runs reports how many simulations the pool has executed — the counter
// the smoke test and the singleflight benchmark assert against (a warm hit
// or a collapsed flight must not advance it).
func (p *Pool) Runs() uint64 { return p.runs.Load() }

// QueueLen and QueueCap expose queue occupancy for /v1/stats.
func (p *Pool) QueueLen() int { return len(p.queue) }
func (p *Pool) QueueCap() int { return cap(p.queue) }
