package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	puno "repro"
	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

// fastSpec is a quick simulation point (~a few ms): kmeans at 2
// transactions per node. Distinct seeds give distinct cache keys.
func fastSpec(seed uint64) Spec {
	return Spec{Workload: "kmeans", TxPerCPU: 2, Seed: seed}
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	return s
}

// gatedService holds every worker at a test-controlled gate, making queue
// and cancellation interleavings deterministic.
func gatedService(t *testing.T, opts Options) (*Service, *testGate) {
	t.Helper()
	gate := &testGate{arrived: make(chan struct{}), release: make(chan struct{})}
	s, err := newService(opts, gate)
	if err != nil {
		t.Fatal(err)
	}
	return s, gate
}

// waitTerminal blocks until the job reaches a terminal state.
func waitTerminal(j *Job) JobState {
	for {
		st, _, changed := j.Snapshot()
		if st.Terminal() {
			return st
		}
		<-changed
	}
}

func TestSubmitRunsAndCaches(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	j1, err := s.Submit(fastSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(j1); st != StateDone {
		t.Fatalf("first job ended %v", st)
	}
	if s.Runs() != 1 {
		t.Fatalf("runs = %d after one job", s.Runs())
	}
	data1, ok := s.Result(j1.Key)
	if !ok {
		t.Fatal("done job has no cached artifact")
	}

	// Identical resubmission: born terminal, simulator untouched.
	j2, err := s.Submit(fastSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _ := j2.Snapshot(); st != StateDone || !j2.Cached {
		t.Fatalf("resubmission state=%v cached=%v", st, j2.Cached)
	}
	if s.Runs() != 1 {
		t.Fatalf("runs advanced to %d on a warm hit", s.Runs())
	}
	if j2.Key != j1.Key {
		t.Fatal("identical specs derived different keys")
	}

	// The cached artifact is byte-identical to a direct simulation of the
	// same resolved point.
	rs, _, err := fastSpec(100).resolve()
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
	if !bytes.Equal(data1, want) {
		t.Fatal("cached artifact differs from a direct run's encoding")
	}
}

func TestKeyDerivation(t *testing.T) {
	resolveKey := func(sp Spec, cv string) Key {
		t.Helper()
		rs, prof, err := sp.resolve()
		if err != nil {
			t.Fatal(err)
		}
		k, err := BuildKey(cv, rs.Config, prof)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := resolveKey(fastSpec(1), "v1")
	if got := resolveKey(fastSpec(1), "v1"); got != base {
		t.Fatal("same spec and code version derived different keys")
	}
	distinct := map[Key]string{base: "base"}
	for name, k := range map[string]Key{
		"seed":         resolveKey(fastSpec(2), "v1"),
		"scheme":       resolveKey(Spec{Workload: "kmeans", TxPerCPU: 2, Seed: 1, Scheme: "PUNO"}, "v1"),
		"tx_per_cpu":   resolveKey(Spec{Workload: "kmeans", TxPerCPU: 3, Seed: 1}, "v1"),
		"workload":     resolveKey(Spec{Workload: "ssca2", TxPerCPU: 2, Seed: 1}, "v1"),
		"nodes":        resolveKey(Spec{Workload: "kmeans", TxPerCPU: 2, Seed: 1, Nodes: 64}, "v1"),
		"code version": resolveKey(fastSpec(1), "v2"),
	} {
		if prev, dup := distinct[k]; dup {
			t.Errorf("varying %s collided with %s", name, prev)
		}
		distinct[k] = name
	}

	// Shards is an execution strategy: same key, same cache slot.
	sharded := resolveKey(Spec{Workload: "kmeans", TxPerCPU: 2, Seed: 1, Shards: 4}, "v1")
	if sharded != base {
		t.Fatal("shards changed the cache key; serial and PDES runs must share a slot")
	}

	// Every request, warm or cold, builds one key before the cache lookup;
	// the key material must stay on the stack.
	rs, prof, err := fastSpec(1).resolve()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { BuildKey("v1", rs.Config, prof) }); n != 0 {
		t.Fatalf("BuildKey allocates %v objects per call, want 0", n)
	}
}

// A cache directory is input from outside the program. A file there that
// carries the right magic and a valid checksum but claims 2^26 timeline
// samples must read as a miss: the point is simulated again and the real
// artifact replaces the file.
func TestBombArtifactOnDiskIsAMiss(t *testing.T) {
	dir := t.TempDir()
	rs, prof, err := fastSpec(77).resolve()
	if err != nil {
		t.Fatal(err)
	}
	key, err := BuildKey("v1", rs.Config, prof)
	if err != nil {
		t.Fatal(err)
	}
	good, err := puno.EncodeResult(&puno.Result{FalseAbortHist: []uint64{}})
	if err != nil {
		t.Fatal(err)
	}
	// An empty Result ends "node count 0, timeline length 0, checksum".
	bomb := binary.AppendUvarint(good[:len(good)-5:len(good)-5], 1<<26)
	bomb = wire.Seal(bomb, 0)
	wiretest.RejectsBomb(t, bomb, func(raw []byte) error { _, err := puno.DecodeResult(raw); return err })
	path := filepath.Join(dir, key.String()+".res")
	if err := os.WriteFile(path, bomb, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestService(t, Options{Workers: 1, CacheDir: dir, CodeVersion: "v1"})
	j, err := s.Submit(fastSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(j); st != StateDone || j.Cached {
		t.Fatalf("job ended %v cached=%v, want a fresh run", st, j.Cached)
	}
	if s.Runs() != 1 {
		t.Fatalf("runs = %d, want the point simulated once", s.Runs())
	}
	data, ok := s.Result(j.Key)
	if !ok || j.Key != key {
		t.Fatal("no artifact under the bombed key after the run")
	}
	if _, err := puno.DecodeResult(data); err != nil {
		t.Fatalf("served artifact does not decode: %v", err)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, data) {
		t.Fatalf("disk tier still holds the bomb (read error %v)", err)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Workload: "no-such-workload"},
		{Workload: "kmeans", Scheme: "no-such-scheme"},
		{Workload: "kmeans", Nodes: 15},
		{Workload: "kmeans", TxPerCPU: -1},
		{Workload: "kmeans", Shards: -2},
		{Workload: "kmeans", SignatureBits: -1},
		{},
	}
	for _, sp := range bad {
		if _, _, err := sp.resolve(); err == nil {
			t.Errorf("spec %+v resolved", sp)
		}
	}
}

// Singleflight: while a flight is held at the gate, identical submissions
// join it (one run total), and canceling ONE waiter must not cancel the
// flight for the others.
func TestSingleflightWaiterCancel(t *testing.T) {
	s, gate := gatedService(t, Options{Workers: 1, QueueDepth: 4})
	defer s.Drain()

	j1, err := s.Submit(fastSpec(200))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.arrived // worker holds the task pre-execution

	j2, err := s.Submit(fastSpec(200))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Collapsed != 1 {
		t.Fatalf("collapsed = %d with one waiter", st.Collapsed)
	}

	if !s.Cancel(j2.ID) {
		t.Fatal("cancel of waiter failed")
	}
	if st := waitTerminal(j2); st != StateCanceled {
		t.Fatalf("canceled waiter ended %v", st)
	}

	gate.release <- struct{}{}
	if st := waitTerminal(j1); st != StateDone {
		t.Fatalf("leader ended %v after waiter cancel", st)
	}
	if s.Runs() != 1 {
		t.Fatalf("runs = %d", s.Runs())
	}
}

// Canceling EVERY waiter cancels the flight: a still-queued task is
// skipped without simulating.
func TestSingleflightFlightCancel(t *testing.T) {
	s, gate := gatedService(t, Options{Workers: 1, QueueDepth: 4})
	defer s.Drain()

	// Occupy the lone worker with a decoy so the flight under test stays
	// queued (cancellation only stops tasks that have not started).
	decoy, err := s.Submit(fastSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.arrived

	j1, err := s.Submit(fastSpec(301))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(fastSpec(301))
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(j1.ID)
	s.Cancel(j2.ID)
	if st := waitTerminal(j1); st != StateCanceled {
		t.Fatalf("j1 ended %v", st)
	}
	if st := waitTerminal(j2); st != StateCanceled {
		t.Fatalf("j2 ended %v", st)
	}

	gate.release <- struct{}{} // decoy simulates
	<-gate.arrived             // canceled task reaches the gate
	gate.release <- struct{}{} // ... and is skipped (ctx already canceled)
	if st := waitTerminal(decoy); st != StateDone {
		t.Fatalf("decoy ended %v", st)
	}
	s.Drain()
	if s.Runs() != 1 {
		t.Fatalf("runs = %d; the fully-canceled flight must not simulate", s.Runs())
	}
	if _, ok := s.Result(j1.Key); ok {
		t.Fatal("canceled flight produced a cache entry")
	}
}

// Full queue: submission fails synchronously with ErrBusy and leaves no
// job or flight behind; after drainage the same spec submits cleanly.
func TestQueueFullBackpressure(t *testing.T) {
	s, gate := gatedService(t, Options{Workers: 1, QueueDepth: 1})
	defer s.Drain()

	j1, err := s.Submit(fastSpec(400)) // worker takes it, holds at gate
	if err != nil {
		t.Fatal(err)
	}
	<-gate.arrived
	j2, err := s.Submit(fastSpec(401)) // fills the single queue slot
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(fastSpec(402)); err != ErrBusy {
		t.Fatalf("third submission: %v, want ErrBusy", err)
	}
	// The rejected spec left no flight: resubmitting after space frees
	// works and is a fresh leader, not a stale waiter.
	gate.release <- struct{}{}
	if st := waitTerminal(j1); st != StateDone {
		t.Fatalf("j1 ended %v", st)
	}
	<-gate.arrived
	j3, err := s.Submit(fastSpec(402))
	if err != nil {
		t.Fatalf("resubmission after drain: %v", err)
	}
	gate.release <- struct{}{}
	<-gate.arrived
	gate.release <- struct{}{}
	if st := waitTerminal(j2); st != StateDone {
		t.Fatalf("j2 ended %v", st)
	}
	if st := waitTerminal(j3); st != StateDone {
		t.Fatalf("j3 ended %v", st)
	}
}

// Draining: queued work completes and lands in the cache; new submissions
// are refused with ErrDraining.
func TestDrainCompletesQueuedWork(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueDepth: 8})
	var jobs []*Job
	for seed := uint64(500); seed < 503; seed++ {
		j, err := s.Submit(fastSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Drain()
	for _, j := range jobs {
		if st, _, _ := j.Snapshot(); st != StateDone {
			t.Fatalf("job %s ended %v after drain", j.ID, st)
		}
		if _, ok := s.Result(j.Key); !ok {
			t.Fatalf("job %s has no artifact after drain", j.ID)
		}
	}
	if _, err := s.Submit(fastSpec(599)); err != ErrDraining {
		t.Fatalf("post-drain submission: %v, want ErrDraining", err)
	}
}

// The -race concurrency certification: 64 goroutines hammer 4 distinct
// keys; singleflight plus the cache must hold simulations to exactly 4.
func TestConcurrentSubmissionsCollapse(t *testing.T) {
	s := newTestService(t, Options{Workers: 4, QueueDepth: 64})
	const goroutines = 64
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			j, err := s.Submit(fastSpec(600 + uint64(g)%4))
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", g, err)
				return
			}
			if st := waitTerminal(j); st != StateDone {
				errs <- fmt.Errorf("goroutine %d: job ended %v", g, st)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if runs := s.Runs(); runs != 4 {
		t.Fatalf("%d submissions over 4 keys ran %d simulations, want 4", goroutines, runs)
	}
	st := s.Stats()
	if st.Submitted != goroutines {
		t.Fatalf("submitted = %d", st.Submitted)
	}
	if st.Collapsed+st.Cache.Hits != goroutines-4 {
		t.Fatalf("collapsed(%d) + cache hits(%d) should absorb the other %d submissions",
			st.Collapsed, st.Cache.Hits, goroutines-4)
	}
}

// Job registry cap: terminal jobs are evicted in insertion order; live
// jobs never are.
func TestJobRegistryCap(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, MaxJobs: 2})
	j1, err := s.Submit(fastSpec(700))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(j1)
	j2, err := s.Submit(fastSpec(700)) // cache hit, terminal
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(j2)
	if _, err := s.Submit(fastSpec(700)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(j1.ID); ok {
		t.Fatal("oldest terminal job survived past the cap")
	}
	if st := s.Stats(); st.Jobs != 2 {
		t.Fatalf("registry holds %d jobs, cap is 2", st.Jobs)
	}
}

// A live job at the front of the registry is skipped over: eviction takes
// the oldest TERMINAL job, wherever it sits.
func TestJobRegistryCapSkipsLiveJobs(t *testing.T) {
	s, gate := gatedService(t, Options{Workers: 1, QueueDepth: 4, MaxJobs: 2})
	defer s.Drain()

	j1, err := s.Submit(fastSpec(710)) // held at the gate: stays live
	if err != nil {
		t.Fatal(err)
	}
	<-gate.arrived
	j2, err := s.Submit(fastSpec(711))
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(j2.ID)
	if st := waitTerminal(j2); st != StateCanceled {
		t.Fatalf("j2 ended %v", st)
	}
	j3, err := s.Submit(fastSpec(712)) // at cap: must evict j2, not j1
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(j2.ID); ok {
		t.Fatal("terminal job behind a live one survived eviction")
	}
	if _, ok := s.Job(j1.ID); !ok {
		t.Fatal("live front job was evicted")
	}

	gate.release <- struct{}{} // j1 simulates
	<-gate.arrived             // j2's canceled task is skipped
	gate.release <- struct{}{}
	<-gate.arrived // j3 simulates
	gate.release <- struct{}{}
	if st := waitTerminal(j1); st != StateDone {
		t.Fatalf("j1 ended %v", st)
	}
	if st := waitTerminal(j3); st != StateDone {
		t.Fatalf("j3 ended %v", st)
	}
}
