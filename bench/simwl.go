package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	puno "repro"
	"repro/internal/machine"
	"repro/internal/pdes"
	"repro/internal/runner"
)

// Workload sizes. An op must stay well under run_seconds/100 so that a
// window holds the hundred-odd samples op_ms_p90 needs (ten beyond it).
const (
	setScale   = 0.2  // sim_hc16, sim_lc16: share of each profile's full transaction count
	sweepScale = 0.05 // sweep_par: short runs, so resets and construction weigh in
	bigTxPer   = 3    // sim_big64: intruder transactions per CPU
	bigShards  = 4
)

var (
	highContention = []string{"bayes", "intruder", "labyrinth", "yada"}
	lowContention  = []string{"genome", "kmeans", "ssca2", "vacation"}
)

// hangLimit is the MaxCycles every benchmark Config carries. The runs here
// take 10^4..10^5 simulated cycles; at the parent commit about 0.3% of
// (workload, scheme, seed) points under Baseline, Backoff and RMW-Pred fall
// into an abort/NACK storm that lasts 10^7 cycles or more (minutes of host
// time at the default 2*10^9 limit). Input generation runs each candidate
// seed once under this limit and skips the ones that exceed it, so no
// timed operation can.
const hangLimit = 1_000_000

// seedsPerRun is how many Config.Seeds the passes of one run cycle through.
// The host time of a pass swings with its seed (sim_hc16's eight specs: 53 to
// 70 ms over forty seeds, 6% standard deviation), so a run on one seed would
// time that seed's luck, and op_ms_p90 of a run that cycles through four would
// be its unluckiest one. A run therefore vets seedMix simulations' worth of
// seeds — 16 for the eight-spec passes, 8 to 32 at the extremes — which makes
// two runs on different -seed values time nearly the same population.
func seedsPerRun(specs, seedMix int) int {
	return max(min(8, seedMix), min(32, seedMix/specs))
}

// simWorkload is any of the four workloads that call the simulator
// directly. One op is one pass over the specs of one of the run's seeds.
// Untraced, a pass goes through the API a user would call — a reused
// puno.Arena, or puno.RunSpecs for the sweep; traced, it goes one level down
// through machineDriver / runner.
type simWorkload struct {
	e     *env
	base  []puno.RunSpec // the pass, Config.Seed still unset
	sweep bool           // run the pass through the worker pool
	big   bool           // 8x8 mesh

	inputs [][]puno.RunSpec // [k]: the pass under the run's k'th seed
	refs   [][][]byte       // [k][i]: the artifact inputs[k][i] must produce
	sum    string
	notes  []string

	arena *puno.Arena
	drv   machineDriver

	next   int       // passes started; pass p runs inputs[p % len(inputs)]
	passes []simPass // every pass's results, for the post-window check
}

type simPass struct {
	k       int
	results []*puno.Result
}

func setSpecs(names []string, scale float64, schemes []puno.Scheme) []puno.RunSpec {
	var specs []puno.RunSpec
	for _, p := range puno.ScaledWorkloads(scale) {
		keep := names == nil
		for _, n := range names {
			keep = keep || n == p.Name()
		}
		if !keep {
			continue
		}
		for _, s := range schemes {
			cfg := puno.DefaultConfig()
			cfg.MaxCycles = hangLimit
			cfg.Scheme = s
			specs = append(specs, puno.RunSpec{Config: cfg, Workload: p})
		}
	}
	return specs
}

// bigSpec is sim_big64's pass: one 64-node point on the serial engine.
func bigSpec() ([]puno.RunSpec, error) {
	wl, err := puno.WorkloadByName("intruder")
	if err != nil {
		return nil, err
	}
	cfg := puno.DefaultConfig()
	cfg.MaxCycles = hangLimit
	cfg.Scheme = puno.SchemePUNO
	cfg.Mesh.Width, cfg.Mesh.Height, cfg.Nodes = 8, 8, 64
	return []puno.RunSpec{{Config: cfg, Workload: wl.WithTxPerCPU(bigTxPer)}}, nil
}

func newSimWorkload(name string, e *env) (*simWorkload, error) {
	w := &simWorkload{e: e}
	pair := []puno.Scheme{puno.SchemeBaseline, puno.SchemePUNO}
	var err error
	switch name {
	case "sim_hc16":
		w.base = setSpecs(highContention, setScale, pair)
	case "sim_lc16":
		w.base = setSpecs(lowContention, setScale, pair)
	case "sweep_par":
		w.base, w.sweep = setSpecs(nil, sweepScale, puno.Schemes()), true
	case "sim_big64":
		w.base, err = bigSpec()
		w.big = true
	default:
		err = fmt.Errorf("unknown sim workload %q", name)
	}
	return w, err
}

// withSeed returns a copy of specs with every Config.Seed set.
func withSeed(specs []puno.RunSpec, seed uint64) []puno.RunSpec {
	out := append([]puno.RunSpec(nil), specs...)
	for i := range out {
		out[i].Config.Seed = seed
	}
	return out
}

// serial returns a copy of specs on the serial engine.
func serial(specs []puno.RunSpec) []puno.RunSpec {
	out := append([]puno.RunSpec(nil), specs...)
	for i := range out {
		out[i].Config.Shards = 0
	}
	return out
}

// vet runs specs once each (fresh machines, the serial engine, W at a time)
// and returns their artifacts, or hung=true when any of them exceeded
// hangLimit.
func vet(e *env, specs []puno.RunSpec) (raws [][]byte, hung bool, err error) {
	results, err := puno.RunSpecs(context.Background(), serial(specs), puno.SweepOptions{Parallel: e.workers})
	if err != nil {
		return nil, isHang(err), err
	}
	raws, err = encodePass(results)
	return raws, false, err
}

// isHang reports whether every failure in err is a run that exceeded its
// cycle limit.
func isHang(err error) bool {
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			if !isHang(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, machine.ErrHung)
}

// maxSeedTries bounds the search for a seed the whole pass completes on.
const maxSeedTries = 50

// prepare derives the run's seeds from -seed and computes, on the serial
// engine, the artifacts every timed pass must reproduce byte for byte —
// whichever path (arena, PDES, worker pool) it takes.
func (w *simWorkload) prepare() error {
	n := seedsPerRun(len(w.base), w.e.sz.seedMix)
	skipped := 0
	for k := 0; k < n; k++ {
		for try := 0; ; try++ {
			if try == maxSeedTries {
				return fmt.Errorf("no seed in %d tries on which the pass stays under %d cycles", try, hangLimit)
			}
			specs := withSeed(w.base, mix(w.e.seed, uint64(k*maxSeedTries+try)))
			raws, hung, err := vet(w.e, specs)
			if hung {
				skipped++
				continue
			}
			if err != nil {
				return err
			}
			w.inputs, w.refs = append(w.inputs, specs), append(w.refs, raws)
			break
		}
	}
	if skipped > 0 {
		w.notes = append(w.notes, fmt.Sprintf("input generation skipped %d candidate seeds whose pass exceeds %d cycles", skipped, hangLimit))
	}
	var all [][]byte
	for _, raws := range w.refs {
		all = append(all, raws...)
	}
	w.sum = digestOf(all)
	return nil
}

func (w *simWorkload) clients() int { return 1 }

func (w *simWorkload) setUp() error {
	w.arena = puno.NewArena()
	warm := &client{}
	for p := 0; p < w.e.sz.warmPasses; p++ {
		if err := w.op(warm, nil, 0); err != nil {
			return err
		}
	}
	w.passes, w.next = nil, 0
	return nil
}

// nextPass picks the specs of the next pass.
func (w *simWorkload) nextPass() (k int, specs []puno.RunSpec) {
	k = w.next % len(w.inputs)
	w.next++
	return k, w.inputs[k]
}

func (w *simWorkload) tearDown() {}

func (w *simWorkload) op(c *client, tr *tracer, op int32) error {
	k, specs := w.nextPass()
	if tr == nil {
		var results []*puno.Result
		if w.sweep {
			var err error
			results, err = puno.RunSpecs(context.Background(), specs, puno.SweepOptions{Parallel: w.e.workers})
			if err != nil {
				return err
			}
		} else {
			for _, sp := range specs {
				res, err := w.arena.Run(sp)
				if err != nil {
					return err
				}
				results = append(results, res)
			}
		}
		w.keep(c, k, results)
		return nil
	}
	var outs []runOut
	var err error
	if w.sweep {
		outs, err = runner.MapWorkers(context.Background(), len(specs), runner.Options{Workers: w.e.workers},
			func(int) *machineDriver { return &machineDriver{} },
			func(_ context.Context, i int, d *machineDriver) (runOut, error) { return d.run(specs[i], tr, op) })
	} else {
		for _, sp := range specs {
			var out runOut
			if out, err = w.drv.run(sp, tr, op); err != nil {
				break
			}
			outs = append(outs, out)
		}
	}
	if err != nil {
		return err
	}
	results := make([]*puno.Result, len(outs))
	for i, o := range outs {
		results[i] = o.res
	}
	w.keep(c, k, results)
	return nil
}

func (w *simWorkload) keep(c *client, k int, results []*puno.Result) {
	for _, r := range results {
		c.cycles += uint64(r.Cycles)
		c.commits += r.Commits
	}
	w.passes = append(w.passes, simPass{k, results})
}

// encodePass renders one pass as its punores/1 artifacts.
func encodePass(results []*puno.Result) ([][]byte, error) {
	raws := make([][]byte, len(results))
	for i, r := range results {
		raw, err := puno.EncodeResult(r)
		if err != nil {
			return nil, err
		}
		raws[i] = raw
	}
	return raws, nil
}

// digestOf hashes a pass's artifacts, each length-prefixed so artifact
// boundaries cannot shift unnoticed.
func digestOf(raws [][]byte) string {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, raw := range raws {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(raw)))])
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify demands that every pass of the run produced, byte for byte, the
// artifacts prepare computed for its seed on the serial engine. A pass that
// did not is a failed op: the simulator was not deterministic, an arena did
// not reset cleanly, or the sharded leg left the serial trajectory.
func (w *simWorkload) verify() (failed int, notes []string) {
	notes = w.notes
	if len(w.passes) == 0 {
		return 1, append(notes, "no pass completed")
	}
	for p, pass := range w.passes {
		raws, err := encodePass(pass.results)
		changed := 0
		for i := range raws {
			if !bytes.Equal(raws[i], w.refs[pass.k][i]) {
				changed++
			}
		}
		if err != nil || changed > 0 {
			failed++
			if len(notes) < 4 {
				notes = append(notes, fmt.Sprintf("pass %d (seed %d of the run): %d of %d artifacts differ from the reference (err=%v)",
					p, pass.k, changed, len(raws), err))
			}
		}
	}
	return failed, notes
}

func (w *simWorkload) digest() string { return w.sum }

func (w *simWorkload) layers(tr *tracer, wall time.Duration, cpu float64, lm layerMetrics) error {
	specs := w.inputs[0]
	if err := probeMachine(tr, specs, w.e.sz.probePasses, w.big, lm); err != nil {
		return err
	}
	if err := probeTrace(specs[0], lm); err != nil {
		return err
	}
	if w.sweep {
		lm.set("runner.workers", float64(w.e.workers))
		lm.set("runner.cpu_util", ratio(cpu, wall.Seconds()*float64(w.e.workers)))
	}
	if w.big {
		return probePDES(tr, specs[0], w.refs[0][0], 3*w.e.sz.probePasses, lm)
	}
	return nil
}

// pdesDriver is machineDriver's sharded counterpart: pdes.New once, then
// Reset+Run, with the process CPU time each Run burned.
type pdesDriver struct {
	co  *pdes.Coordinator
	cpu []float64
}

func (d *pdesDriver) run(sp puno.RunSpec, tr *tracer, parent int32) (runOut, error) {
	var err error
	if d.co == nil {
		s := tr.begin("pdes.new", parent)
		d.co, err = pdes.New(sp.Config, sp.Workload)
		tr.end(s)
	} else {
		s := tr.begin("pdes.reset", parent)
		err = d.co.Reset(sp.Config, sp.Workload)
		tr.end(s)
	}
	if err != nil {
		return runOut{}, err
	}
	cpu0 := cpuSeconds()
	s := tr.begin("pdes.run", parent)
	res, err := d.co.Run()
	tr.end(s)
	d.cpu = append(d.cpu, cpuSeconds()-cpu0)
	if err != nil {
		return runOut{}, err
	}
	return finishRun(&runOut{}, res, tr, parent)
}

// probePDES is the PDES leg of sim_big64: the same spec under bigShards
// shards, outside any timed window, every artifact checked against the serial
// engine's. On the 2-processor host this was written on four shards take 2.5
// times the serial engine's wall time, and that time swings twice as far with
// the host as anything else here (a 15% to 25% spread over ten 28 s windows of
// one commit), so no bound a regression gate could use fits it: the leg is a
// set of per-layer figures, and pdes.speedup the number ROADMAP item 2 asks
// for.
func probePDES(tr *tracer, sp puno.RunSpec, want []byte, passes int, lm layerMetrics) error {
	sp.Config.Shards = bigShards
	if !pdes.Eligible(sp.Config, sp.Workload) {
		return errors.New("sim_big64: the spec is not shardable, the PDES leg would silently go serial")
	}
	op := tr.newOp("probe.pdes")
	defer tr.end(op)
	// Reset+Run+Clone+Encode under the coordinator and on the serial engine,
	// the same spec turn and turn about: the two sides of pdes.speedup.
	var d pdesDriver
	var m machineDriver
	var shardedNs, serialNs []float64
	for p := 0; p < passes; p++ {
		t := time.Now()
		out, err := d.run(sp, tr, op)
		shardedNs = append(shardedNs, float64(time.Since(t)))
		if err != nil {
			return err
		}
		if !bytes.Equal(out.raw, want) {
			return fmt.Errorf("sim_big64: the artifact of %d shards differs from the serial engine's", bigShards)
		}
		t = time.Now()
		_, err = m.run(serial([]puno.RunSpec{sp})[0], nil, 0)
		serialNs = append(serialNs, float64(time.Since(t)))
		if err != nil {
			return err
		}
	}
	runMs := medianOf(tr, "pdes.run", 1e6)
	cpu := median(d.cpu)
	lm.set("pdes.run_ms", runMs)
	lm.set("pdes.reset_us", medianOf(tr, "pdes.reset", 1e3))
	lm.set("pdes.cpu_s_per_run", cpu)
	lm.set("pdes.cpu_util", ratio(cpu, runMs/1e3*float64(sp.Config.Shards)))
	var err error
	objects, _ := mallocDelta(func() {
		if err = d.co.Reset(sp.Config, sp.Workload); err == nil {
			_, err = d.co.Run()
		}
	})
	lm.set("pdes.allocs_per_run", objects)
	lm.set("pdes.speedup", ratio(median(serialNs), median(shardedNs)))
	return err
}
