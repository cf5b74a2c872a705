package main

import (
	"bytes"
	"runtime"
	"time"

	puno "repro"
	"repro/internal/noc"
)

// layerMetrics holds the per-layer values of one traced run. Every defined
// name starts at 0 and stays there when the workload never enters its
// layer.
type layerMetrics struct{ v map[string]float64 }

func newLayerMetrics() layerMetrics {
	lm := layerMetrics{v: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		lm.v[d.Name] = 0
	}
	return lm
}

func (lm layerMetrics) set(name string, v float64) {
	if _, ok := lm.v[name]; !ok {
		panic("bench: undefined per-layer metric " + name) // a typo in this package
	}
	lm.v[name] = v
}

func (lm layerMetrics) get(name string) float64 { return lm.v[name] }

func (lm layerMetrics) values() map[string]metricValue {
	out := make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = metricValue{lm.v[d.Name], d.Unit}
	}
	return out
}

// counts are the simulated, exactly repeatable metrics (kindCount).
func (lm layerMetrics) counts() map[string]float64 {
	out := make(map[string]float64)
	for _, d := range perLayer {
		if d.Kind == kindCount {
			out[d.Name] = lm.v[d.Name]
		}
	}
	return out
}

// medianOf is the median duration of the spans called name, in the unit
// whose size in ns is per (0 when the run recorded no such span).
func medianOf(tr *tracer, name string, per float64) float64 {
	d := tr.durations(name)
	if len(d) == 0 {
		return 0
	}
	return median(d) / per
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runOut is what one simulation yields at the machine boundary: the result,
// its punores/1 artifact, and the counts only the machine itself exposes.
type runOut struct {
	res    *puno.Result
	raw    []byte
	events uint64 // Engine().Processed()
	lines  int    // Backing().Touched()
}

// machineDriver runs specs the way puno.Arena does — build once, then
// Reset+Run, Clone the result — but one exported call at a time, with a span
// around each and the counts read at the same boundary.
type machineDriver struct{ m *puno.Machine }

func (d *machineDriver) run(sp puno.RunSpec, tr *tracer, parent int32) (runOut, error) {
	var err error
	if d.m == nil {
		s := tr.begin("machine.new", parent)
		d.m, err = puno.NewMachine(sp.Config, sp.Workload)
		tr.end(s)
	} else {
		s := tr.begin("machine.reset", parent)
		err = d.m.Reset(sp.Config, sp.Workload)
		tr.end(s)
	}
	if err != nil {
		return runOut{}, err
	}
	s := tr.begin("machine.run", parent)
	res, err := d.m.Run()
	tr.end(s)
	if err != nil {
		return runOut{}, err
	}
	out := runOut{events: d.m.Engine().Processed(), lines: d.m.Backing().Touched()}
	return finishRun(&out, res, tr, parent)
}

// finishRun is the part of a run the serial and sharded drivers share:
// clone the machine-owned result, encode the artifact.
func finishRun(out *runOut, res *puno.Result, tr *tracer, parent int32) (runOut, error) {
	s := tr.begin("machine.clone", parent)
	out.res = res.Clone()
	tr.end(s)
	s = tr.begin("machine.encode", parent)
	raw, err := puno.EncodeResult(out.res)
	tr.end(s)
	out.raw = raw
	return *out, err
}

// mallocDelta runs fn and returns the heap objects and bytes it allocated.
func mallocDelta(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// probeMachine measures the machine layer on specs outside any timed
// window and fills in the simulated counts, machine.* and the share
// estimates: a few cold machines (NewMachine plus the first Run, which pays
// for every slab the machine grows), then arena-style passes, allocation
// per run and artifact decode. The sim workloads' traced windows have
// recorded the same spans under other seeds of the run; the serve
// workloads, whose simulations happen behind the socket, see the machine
// only here.
func probeMachine(tr *tracer, specs []puno.RunSpec, passes int, big bool, lm layerMetrics) error {
	op := tr.newOp("probe.machine")
	defer tr.end(op)
	for i := 0; i < 3; i++ {
		s := tr.begin("machine.cold", op)
		m, err := puno.NewMachine(specs[0].Config, specs[0].Workload)
		if err == nil {
			_, err = m.Run()
		}
		tr.end(s)
		if err != nil {
			return err
		}
	}
	var first []runOut
	d := &machineDriver{}
	for p := 0; p < passes; p++ {
		for _, sp := range specs {
			out, err := d.run(sp, tr, op)
			if err != nil {
				return err
			}
			if p == 0 {
				first = append(first, out)
			}
		}
	}
	for _, out := range first {
		s := tr.begin("machine.decode", op)
		_, err := puno.DecodeResult(out.raw)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	// Host ns one pass spends inside Machine.Run, from the probe's own run
	// spans: they are the ones whose counts `first` holds.
	var runNs float64
	for _, sp := range tr.spans {
		if sp.Op == op && sp.Name == "machine.run" {
			runNs += float64(sp.End - sp.Start)
		}
	}
	return setMachineLayer(tr, specs, first, runNs/float64(passes), big, lm)
}

// machineAllocs is the mean heap objects and bytes one Reset+Run allocates
// on a warm machine.
func machineAllocs(specs []puno.RunSpec) (objects, bytes float64, err error) {
	m, err := puno.NewMachine(specs[0].Config, specs[0].Workload)
	if err != nil {
		return 0, 0, err
	}
	if _, err := m.Run(); err != nil {
		return 0, 0, err
	}
	for _, sp := range specs {
		o, b := mallocDelta(func() {
			if err = m.Reset(sp.Config, sp.Workload); err == nil {
				_, err = m.Run()
			}
		})
		if err != nil {
			return 0, 0, err
		}
		objects += o
		bytes += b
	}
	n := float64(len(specs))
	return objects / n, bytes / n, nil
}

// probeTrace measures the punoevt/1 layer on one spec: how much a run slows
// with an EventSink installed (fresh machine on both sides), and what
// saving the stream costs per event.
func probeTrace(sp puno.RunSpec, lm layerMetrics) error {
	var plain, captured []float64
	var evt *puno.EventTrace
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := puno.Run(sp.Config, sp.Workload); err != nil {
			return err
		}
		plain = append(plain, float64(time.Since(t)))
		t = time.Now()
		var err error
		if _, evt, err = puno.CaptureEvents(sp.Config, sp.Workload); err != nil {
			return err
		}
		captured = append(captured, float64(time.Since(t)))
	}
	var buf bytes.Buffer
	t := time.Now()
	if err := evt.Save(&buf); err != nil {
		return err
	}
	save := float64(time.Since(t))
	lm.set("trace.events", float64(len(evt.Events)))
	lm.set("trace.capture_overhead_ratio", ratio(median(captured), median(plain)))
	lm.set("trace.encode_ns_per_event", ratio(save, float64(len(evt.Events))))
	return nil
}

// setMachineLayer turns the machine spans in tr, one pass's outputs and the
// host ns that pass spent in Machine.Run into the count, machine.* and
// share_est metrics. big selects the 8x8 mesh kernel for the NoC share.
func setMachineLayer(tr *tracer, specs []puno.RunSpec, pass []runOut, runNs float64, big bool, lm layerMetrics) error {
	var events, lines, commits, aborts, cycles, msgs, reqs, trav, gen, bytesOut float64
	var svc, busy, nacks, retries, uni, multi, mis, falseAb, getx, good, disc float64
	for i, o := range pass {
		r := o.res
		events += float64(o.events)
		lines += float64(o.lines)
		bytesOut += float64(len(o.raw))
		commits += float64(r.Commits)
		aborts += float64(r.Aborts)
		cycles += float64(r.Cycles)
		msgs += float64(r.Net.TotalMessages())
		reqs += float64(r.Net.Messages[noc.ClassRequest])
		trav += float64(r.Net.TotalTraversals())
		svc += float64(r.DirTxGETXServices)
		busy += float64(r.DirBusyAll)
		nacks += float64(r.Nacks)
		retries += float64(r.Retries)
		uni += float64(r.DirUnicasts)
		multi += float64(r.DirMulticastFwds)
		mis += float64(r.Mispredictions)
		falseAb += float64(r.GETXOutcomes[puno.OutcomeFalseAbort])
		getx += float64(r.TxGETXAccesses)
		good += float64(r.GoodCycles)
		disc += float64(r.DiscardedCycles)
		if p, ok := specs[i].Workload.(*puno.Profile); ok {
			gen += float64(p.TxPerCPU() * specs[i].Config.Nodes)
		}
	}
	lm.set("sim.events", events)
	lm.set("mem.lines_touched", lines)
	lm.set("machine.result_bytes", bytesOut)
	lm.set("noc.messages", msgs)
	lm.set("noc.traversals", trav)
	lm.set("htm.commits", commits)
	lm.set("htm.aborts", aborts)
	lm.set("htm.commit_ratio", ratio(commits, commits+aborts))
	lm.set("htm.false_abort_share", ratio(falseAb, getx))
	lm.set("htm.good_cycle_share", ratio(good, good+disc))
	lm.set("coherence.requests", reqs)
	lm.set("coherence.txgetx_services", svc)
	lm.set("coherence.dir_busy_cycles", busy)
	lm.set("coherence.nacks", nacks)
	lm.set("coherence.retries", retries)
	lm.set("coherence.unicasts", uni)
	lm.set("coherence.multicast_fwds", multi)
	lm.set("coherence.mispredictions", mis)
	lm.set("coherence.unicast_hit_ratio", ratio(uni-mis, uni))
	lm.set("stamp.tx_generated", gen)

	lm.set("machine.new_ms", medianOf(tr, "machine.cold", 1e6))
	lm.set("machine.reset_us", medianOf(tr, "machine.reset", 1e3))
	lm.set("machine.run_ms", medianOf(tr, "machine.run", 1e6))
	lm.set("machine.clone_us", medianOf(tr, "machine.clone", 1e3))
	lm.set("machine.encode_us", medianOf(tr, "machine.encode", 1e3))
	lm.set("machine.decode_us", medianOf(tr, "machine.decode", 1e3))
	objects, heapBytes, err := machineAllocs(specs)
	if err != nil {
		return err
	}
	lm.set("machine.allocs_per_run", objects)
	lm.set("machine.bytes_per_run", heapBytes)

	lm.set("machine.ns_per_event", ratio(runNs, events))
	lm.set("machine.ns_per_sim_cycle", ratio(runNs, cycles))

	// Outside estimates: what the layer's kernel says its share of the
	// counted work would cost alone, over what the run did cost. The
	// kernels run hot and alone, so these are floors, and the residual
	// (node FSM, dispatch, cache misses between layers) a ceiling.
	simKernel := lm.get("sim.kernel_ns_per_event")
	nocKernel := lm.get("noc.kernel_ns_per_send")
	if big {
		nocKernel = lm.get("noc.kernel64_ns_per_send")
	}
	// A Mesh.Send ends in one engine event, which sim.events already
	// counted: the mesh's own share is the routing on top of it.
	nocKernel = max(0, nocKernel-simKernel)
	shares := map[string]float64{
		"sim.share_est":       ratio(events*simKernel, runNs),
		"noc.share_est":       ratio(msgs*nocKernel, runNs),
		"coherence.share_est": ratio(reqs*lm.get("coherence.kernel_ns_per_request"), runNs),
		"stamp.share_est":     ratio(gen*lm.get("stamp.kernel_ns_per_tx"), runNs),
	}
	residual := 1.0
	for name, s := range shares {
		lm.set(name, s)
		residual -= s
	}
	lm.set("machine.residual_share_est", residual)
	return nil
}
