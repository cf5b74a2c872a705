package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sizes are the fixed work amounts of a run. Real runs use fullSizes; the
// smoke tests shrink everything that is not the code path itself.
type sizes struct {
	seconds     float64 // length of the timed window
	setupReps   int     // set-ups per run; setup_s is their median
	warmPasses  int     // untimed sim passes / serve op rounds before the window
	seedMix     int     // simulations' worth of Config.Seeds a sim run cycles through (see seedsPerRun)
	primeKeys   int     // serve_warm working set (must stay below the LRU's capacity)
	coldKeys    int     // serve_cold key cycle (must exceed coldCache)
	coldCache   int     // serve_cold's serve.Options.CacheEntries
	kernelDiv   int     // layer kernels run their op count divided by this
	probePasses int     // passes of the machine-layer probe in a traced run
	tail        int     // samples required beyond op_ms_p90
}

func fullSizes(seconds float64) sizes {
	return sizes{seconds: seconds, setupReps: 5, warmPasses: 3, seedMix: 128, primeKeys: 256, coldKeys: 384,
		coldCache: 256, kernelDiv: 1, probePasses: 3, tail: minTail}
}

func quickSizes(seconds float64) sizes {
	return sizes{seconds: seconds, setupReps: 1, warmPasses: 1, seedMix: 2, primeKeys: 16, coldKeys: 48,
		coldCache: 32, kernelDiv: 100, probePasses: 1, tail: 0}
}

// env is what a run hands each workload.
type env struct {
	seed    uint64
	workers int // W = min(nproc, 4): GOMAXPROCS and the cap on load-generating goroutines
	sz      sizes
	outDir  string // where trace files go
	log     io.Writer

	// corruptFetch flips a byte in every artifact a serve workload fetches
	// in a timed window, before it is checked. Only the tests set it: it
	// shows that a wrong byte fails the run.
	corruptFetch bool
}

// workerCount is W.
func workerCount() int { return min(runtime.NumCPU(), 4) }

// mix derives an independent 64-bit value from the run seed (splitmix64),
// so every Config.Seed and request seed is a function of -seed alone.
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// workload is one benchmark workload. prepare generates the run's inputs
// from -seed, and the outputs they must produce, once; setUp builds and
// warms everything the timed window needs (it may run several times, each
// after a tearDown); op runs one operation for one client — untraced when tr
// is nil, else driving the layer boundaries itself and recording spans under
// the span root; verify runs after the window so the checks cost no measured
// time.
type workload interface {
	clients() int
	prepare() error
	setUp() error
	op(c *client, tr *tracer, root int32) error
	// verify returns how many further operations the post-window checks
	// found wrong (added to the clients' own failures).
	verify() (failed int, notes []string)
	// digest is the SHA-256 over the punores/1 artifacts of the run's
	// inputs, as prepare computed them.
	digest() string
	// layers fills the per-layer metrics only this workload can measure.
	layers(tr *tracer, wall time.Duration, cpu float64, lm layerMetrics) error
	tearDown()
}

// client is one closed-loop load generator: it starts its next operation
// only when the previous one has completed.
type client struct {
	id      int
	setup   bool // doing set-up work (runWindowN), not a timed window
	ops     int
	failed  int
	cycles  uint64    // Σ Result.Cycles over the results this client received
	commits uint64    // Σ Result.Commits likewise
	samples []float64 // host ms of every timed op
	refs    []float64 // gauge readings taken between ops, us
	errs    []string
}

// window is the outcome of one timed window.
type window struct {
	clients []*client
	wall    time.Duration
	cpu     float64 // process CPU seconds spent during the window
}

func (w window) samples() []float64 {
	var out []float64
	for _, c := range w.clients {
		out = append(out, c.samples...)
	}
	return out
}

func (w window) refs() []float64 {
	var out []float64
	for _, c := range w.clients {
		out = append(out, c.refs...)
	}
	return out
}

func (w window) totals() (ops, failed int, cycles, commits uint64, errs []string) {
	for _, c := range w.clients {
		ops += c.ops
		failed += c.failed
		cycles += c.cycles
		commits += c.commits
		errs = append(errs, c.errs...)
	}
	return
}

// errStop, returned by an op, ends its client without counting the op.
var errStop = errors.New("enough ops started")

// runWindow runs n closed-loop clients for d, timing every operation. With
// gauges (one per client) each client also takes gauge readings between ops.
func runWindow(n int, d time.Duration, gauges []*gauge, body func(c *client) error) window {
	clients := make([]*client, n)
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	start := time.Now()
	for id := range clients {
		c := &client{id: id}
		clients[id] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastRef time.Time
			for time.Since(start) < d {
				if gauges != nil && time.Since(lastRef) >= gaugeEvery {
					c.refs = append(c.refs, gauges[id].reading())
					lastRef = time.Now()
				}
				t := time.Now()
				err := body(c)
				if errors.Is(err, errStop) {
					break
				}
				c.samples = append(c.samples, float64(time.Since(t))/1e6)
				c.ops++
				if err != nil {
					c.failed++
					if len(c.errs) < 3 {
						c.errs = append(c.errs, fmt.Sprintf("client %d op %d: %v", c.id, c.ops, err))
					}
				}
			}
		}()
	}
	wg.Wait()
	return window{clients: clients, wall: time.Since(start), cpu: cpuSeconds() - cpu0}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns what input generation left behind to the OS and
// restarts the kernel's high-water mark, so that peak_rss_mb covers set-up
// and the window, not the benchmark's own preparations (a candidate seed
// that storms to the cycle limit can grow the heap several-fold). Where
// /proc/self/clear_refs cannot be written the mark simply stays.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the process's resident-set high-water mark: the "VmHWM: <n>
// kB" line of /proc/self/status.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// hostInfo is recorded with every result set: host time only means
// something next to the host it was taken on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
}

func readHostInfo() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: workerCount(),
		GOGC: os.Getenv("GOGC"), CPUModel: "unknown"}
	if h.GOGC == "" {
		h.GOGC = "100 (default)"
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runUntraced measures one workload end to end: repeated set-up, one GC,
// the timed window, then the correctness checks.
func runUntraced(e *env, name string) (*record, error) {
	w, err := newWorkload(name, e)
	if err == nil {
		err = w.prepare()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", name, err)
	}
	resetPeakRSS()
	var setups []float64
	for r := 0; r < e.sz.setupReps; r++ {
		if r > 0 {
			w.tearDown()
		}
		t := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.tearDown()

	gauges := newGauges(w.clients())
	runtime.GC()
	untraced := func(c *client) error { return w.op(c, nil, 0) }
	win := runWindow(w.clients(), time.Duration(e.sz.seconds*float64(time.Second)), gauges, untraced)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	samples := win.samples()
	ops, failed, cycles, commits, notes := win.totals()
	p90, err := percentile(samples, 0.90, e.sz.tail)
	if err != nil {
		// Shown rather than refused: the driver needs every metric on every
		// run, and a slow host must not turn into a failed one. The note
		// and the sample count say how far to trust it.
		notes = append(notes, "op_ms_p90: "+err.Error())
	}
	vFailed, vNotes := w.verify()
	failed += vFailed
	notes = append(notes, vNotes...)

	// Host times are reported at the pace the gauge ran at (see gauge.go):
	// times multiplied by the factor, rates divided. The set-ups ended
	// seconds before the window began, so its readings speak for them too.
	speed := hostSpeed(win.refs(), w.clients())
	secs := win.wall.Seconds() * speed
	rec := &record{
		Workload: name, Seed: e.seed, Samples: len(samples), SimDigest: w.digest(), Notes: notes,
		HostSpeed: speed,
		result: result{Attempted: ops, Failed: failed, Correct: failed == 0, Metrics: map[string]metricValue{
			"setup_s":                {median(setups) * speed, "s"},
			"op_ms_p50":              {median(samples) * speed, "ms"},
			"op_ms_p90":              {p90 * speed, "ms"},
			"ops_per_s":              {float64(ops) / secs, "1/s"},
			"sim_cycles_per_host_s":  {float64(cycles) / secs, "cycles/s"},
			"sim_commits_per_host_s": {float64(commits) / secs, "1/s"},
			"peak_rss_mb":            {rss, "MB"},
		}},
	}
	return rec, checkEmitted(endToEnd, rec.Metrics)
}

// runTraced is the separate run that yields the per-layer numbers: a short
// untraced window for the overhead base, the traced window, the layer
// kernels, then the workload's own layer measurements. End-to-end metrics
// are never taken from it.
func runTraced(e *env, name string) (*record, error) {
	w, err := newWorkload(name, e)
	if err == nil {
		err = w.prepare()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", name, err)
	}
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}

	gauges := newGauges(w.clients())
	runtime.GC()
	total := time.Duration(e.sz.seconds * float64(time.Second))
	base := runWindow(w.clients(), total/4, gauges, func(c *client) error { return w.op(c, nil, 0) })
	tr := newTracer()
	win := runWindow(w.clients(), total-total/4, gauges, func(c *client) error {
		root := tr.newOp("op")
		err := w.op(c, tr, root)
		tr.end(root)
		return err
	})

	lm := newLayerMetrics()
	lm.set("bench.trace_overhead_ratio", median(win.samples())/median(base.samples()))
	lm.set("bench.host_speed", hostSpeed(win.refs(), w.clients()))
	if err := runKernels(e, lm); err != nil {
		return nil, fmt.Errorf("%s: layer kernels: %w", name, err)
	}
	if err := w.layers(tr, win.wall, win.cpu, lm); err != nil {
		return nil, fmt.Errorf("%s: layer metrics: %w", name, err)
	}

	ops, failed, _, _, notes := win.totals()
	bOps, bFailed, _, _, bNotes := base.totals()
	vFailed, vNotes := w.verify()
	failed += bFailed + vFailed
	notes = append(append(notes, bNotes...), vNotes...)

	path, err := tr.write(e.outDir, name, e.seed, lm.counts())
	if err != nil {
		return nil, fmt.Errorf("%s: writing trace: %w", name, err)
	}
	fmt.Fprintf(e.log, "trace: %s (%d spans, %d ops)\n", path, len(tr.spans), tr.ops)

	rec := &record{
		Workload: name, Seed: e.seed, Traced: true, Samples: len(win.samples()), SimDigest: w.digest(), Notes: notes,
		HostSpeed: lm.get("bench.host_speed"),
		result:    result{Attempted: ops + bOps, Failed: failed, Correct: failed == 0, Metrics: lm.values()},
	}
	return rec, checkEmitted(perLayer, rec.Metrics)
}
