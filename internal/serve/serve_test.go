package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// and join interleavings deterministic.
func gatedService(t testing.TB, opts Options) (*Service, *testGate) {
	t.Helper()
	gate := &testGate{arrived: make(chan struct{}), release: make(chan struct{})}
	s, err := newService(opts, gate)
	if err != nil {
		t.Fatal(err)
	}
	return s, gate
}

// specKey is the content address Submit files sp under at code version cv.
func specKey(t testing.TB, sp Spec, cv string) Key {
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
	resolveKey := func(sp Spec, cv string) Key { return specKey(t, sp, cv) }
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
	key := specKey(t, fastSpec(77), "v1")
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
		{Workload: "kmeans", Nodes: -16},
		{Workload: "kmeans", Nodes: 17 * 17}, // a square, but past the sharer bitset
		{Workload: "kmeans", Nodes: 1 << 62},
		{Workload: "kmeans", TxPerCPU: -1},
		{Workload: "kmeans", SignatureBits: -1},
		{Workload: "kmeans", TxPerCPU: maxTxPerCPU + 1},
		{Workload: "kmeans", SignatureBits: maxSignatureBits + 1},
		{},
	}
	for _, sp := range bad {
		if _, _, err := sp.resolve(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %+v: %v, want ErrBadSpec", sp, err)
		}
	}
	// The caps are inclusive.
	for _, sp := range []Spec{
		{Workload: "kmeans", TxPerCPU: maxTxPerCPU},
		{Workload: "kmeans", SignatureBits: maxSignatureBits},
	} {
		if _, _, err := sp.resolve(); err != nil {
			t.Errorf("spec %+v at its cap: %v", sp, err)
		}
	}
	// Sizes that used to reach an allocation (2^40 signature bits is a
	// 128 GiB filter per node: a runtime throw no recover catches) or a loop
	// bound are refused by name.
	for want, sp := range map[string]Spec{
		"tx_per_cpu must be in 0..10000":     {Workload: "kmeans", TxPerCPU: 1 << 40},
		"signature_bits must be in 0..65536": {Workload: "kmeans", SignatureBits: 1 << 40},
	} {
		if _, _, err := sp.resolve(); !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), want) {
			t.Errorf("spec %+v: %v, want ErrBadSpec naming the limit (%q)", sp, err, want)
		}
	}
}

// Singleflight: while a flight is held at the gate, an identical
// submission joins it — both jobs read the one flight's state, and the key
// is simulated once.
func TestSingleflightJoin(t *testing.T) {
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
		t.Fatalf("collapsed = %d with one joiner", st.Collapsed)
	}
	for _, j := range []*Job{j1, j2} {
		if st, _, _ := j.Snapshot(); st != StateQueued || j.Cached {
			t.Fatalf("job %s at the gate: state %v cached %v", j.Key, st, j.Cached)
		}
	}

	gate.release <- struct{}{}
	for _, j := range []*Job{j1, j2} {
		if st := waitTerminal(j); st != StateDone {
			t.Fatalf("job %s ended %v", j.Key, st)
		}
	}
	if s.Runs() != 1 {
		t.Fatalf("runs = %d", s.Runs())
	}
}

// The service lock is never held across file I/O: while one submission's
// disk read is stuck, a submission of a memory-resident key and a job
// status request both complete; once the read returns, the stuck
// submission resolves as the disk hit it was.
func TestSlowDiskReadBlocksOnlyItsOwnSubmission(t *testing.T) {
	dir := t.TempDir()
	first := newTestService(t, Options{Workers: 1, CacheDir: dir, CodeVersion: "v1"})
	ja, err := first.Submit(fastSpec(250))
	if err != nil {
		t.Fatal(err)
	}
	first.Drain() // A's artifact is on disk

	// A second process over the same directory: A is on disk only.
	s := newTestService(t, Options{Workers: 1, CacheDir: dir, CodeVersion: "v1"})
	entered, release := make(chan struct{}), make(chan struct{})
	s.cache.readFile = func(path string) ([]byte, error) {
		if path == s.cache.path(ja.Key) {
			entered <- struct{}{}
			<-release
		}
		return os.ReadFile(path)
	}
	jb, err := s.Submit(fastSpec(251))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(jb); st != StateDone {
		t.Fatalf("B ended %v", st)
	}
	// A cold leader probes each tier once and the under-lock re-probe,
	// having missed, moves no counter.
	if cs := s.Stats().Cache; cs.Misses != 1 || cs.Hits != 0 || cs.DiskHits != 0 {
		t.Fatalf("cache counters after one cold submission: %+v", cs)
	}

	type submitted struct {
		job *Job
		err error
	}
	slow := make(chan submitted)
	go func() {
		j, err := s.Submit(fastSpec(250))
		slow <- submitted{j, err}
	}()
	<-entered // A's submission is inside its disk read

	jb2, err := s.Submit(fastSpec(251))
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _ := jb2.Snapshot(); st != StateDone || !jb2.Cached {
		t.Fatalf("memory hit during a slow disk read: state %v cached %v", st, jb2.Cached)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+jb.Key.String(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("job status during a slow disk read: %d", rec.Code)
	}

	close(release)
	got := <-slow
	if got.err != nil {
		t.Fatal(got.err)
	}
	if st, _, _ := got.job.Snapshot(); st != StateDone || !got.job.Cached {
		t.Fatalf("A after its disk read: state %v cached %v", st, got.job.Cached)
	}
	if cs := s.Stats().Cache; cs.DiskHits != 1 || cs.Hits != 1 {
		t.Fatalf("cache counters: %+v, want one disk hit (A) and one memory hit (B)", cs)
	}
	if s.Runs() != 1 {
		t.Fatalf("runs = %d, want only B's cold run", s.Runs())
	}
}

// The gap the lock no longer covers: a submission whose probe missed just
// before the key's flight finished finds no flight under the lock, and
// must find the artifact there instead of simulating the key again.
func TestSubmitAfterFlightFinishedInTheGap(t *testing.T) {
	s, gate := gatedService(t, Options{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir()})
	defer s.Drain()

	leader, err := s.Submit(fastSpec(260))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.arrived

	// The late submission's disk probe answers what the disk held when it
	// was issued (nothing), but only after the flight has come and gone.
	entered, release := make(chan struct{}), make(chan struct{})
	s.cache.readFile = func(path string) ([]byte, error) {
		data, err := os.ReadFile(path)
		entered <- struct{}{}
		<-release
		return data, err
	}
	late := make(chan *Job)
	go func() {
		j, err := s.Submit(fastSpec(260))
		if err != nil {
			t.Error(err)
		}
		late <- j
	}()
	<-entered
	gate.release <- struct{}{}
	if st := waitTerminal(leader); st != StateDone {
		t.Fatalf("leader ended %v", st)
	}
	close(release)
	j := <-late
	if j == nil {
		t.FailNow()
	}
	if st, _, _ := j.Snapshot(); st != StateDone || !j.Cached {
		t.Fatalf("late submission: state %v cached %v, want a hit", st, j.Cached)
	}
	st := s.Stats()
	if st.Cache.Misses != 2 || st.Cache.Hits != 1 || st.Collapsed != 0 {
		t.Fatalf("counters: %+v, want two probe misses, one re-probe hit, nothing collapsed", st)
	}
	s.Drain()
	if s.Runs() != 1 {
		t.Fatalf("runs = %d; the key was simulated again", s.Runs())
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
			t.Fatalf("job %s ended %v after drain", j.Key, st)
		}
		if _, ok := s.Result(j.Key); !ok {
			t.Fatalf("job %s has no artifact after drain", j.Key)
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
	// Every submission is exactly one of leader, collapsed or hit, and a
	// key has one leader while its artifact is resident: 4 leaders, so the
	// other two counters account for the rest exactly.
	st := s.Stats()
	if st.Submitted != goroutines {
		t.Fatalf("submitted = %d", st.Submitted)
	}
	if leaders := st.Submitted - st.Collapsed - st.Cache.Hits; leaders != 4 {
		t.Fatalf("%d submissions - collapsed(%d) - cache hits(%d) leaves %d leaders for 4 keys",
			st.Submitted, st.Collapsed, st.Cache.Hits, leaders)
	}
}

// No goroutine per job: after a burst of submissions has drained, the
// process is back to the goroutines it had before the service existed.
func TestNoGoroutinePerJob(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Options{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Submit(fastSpec(800 + uint64(i)%8)); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	// Drain returns when the workers have signalled, a step before they
	// have exited; yield until the scheduler has retired them. A goroutine
	// parked on a job never would be, however long this spins.
	for i := 0; i < 1<<20 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before New, %d after Drain\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// A failure is as deterministic as a result, so a failed key keeps its
// flight: the job reads failed with the error, in Go and over HTTP, its
// result is a 409, and a resubmission joins the failed flight (counted as
// collapsed) instead of simulating the key again.
func TestFailedKeyIsSimulatedOnce(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	boom := errors.New("injected: simulation exceeded its cycle limit")
	s.pool.run = func(*puno.Arena, puno.RunSpec) (*puno.Result, error) { return nil, boom }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, err := s.Submit(fastSpec(950))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(j); st != StateFailed {
		t.Fatalf("job ended %v, want failed", st)
	}
	if _, msg, _ := j.Snapshot(); msg != boom.Error() {
		t.Fatalf("failed job's error %q, want %q", msg, boom)
	}
	for _, path := range []string{"/v1/jobs/" + j.Key.String(), "/v1/jobs/" + j.Key.String() + "?wait=1"} {
		code, _, body := getBody(t, ts.URL+path)
		var got jobJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK || got.State != string(StateFailed) || got.Error != boom.Error() || got.ID != j.Key.String() {
			t.Fatalf("GET %s: status %d, %+v", path, code, got)
		}
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+j.Key.String()+"/result"); code != http.StatusConflict {
		t.Fatalf("result of a failed job: status %d, want 409", code)
	}

	before := s.Stats()
	again, err := s.Submit(fastSpec(950))
	if err != nil {
		t.Fatal(err)
	}
	if st, msg, _ := again.Snapshot(); st != StateFailed || msg != boom.Error() || again.Cached {
		t.Fatalf("resubmission: state %v error %q cached %v, want the stored failure", st, msg, again.Cached)
	}
	after := s.Stats()
	if after.Runs != 1 || after.Runs != before.Runs || after.Collapsed != before.Collapsed+1 {
		t.Fatalf("resubmitting a failed key: runs %d -> %d, collapsed %d -> %d; want 1 run and one more collapsed",
			before.Runs, after.Runs, before.Collapsed, after.Collapsed)
	}
}
