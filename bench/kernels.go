package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	puno "repro"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
)

// A kernel drives one layer's exported API alone, hot, for a fixed op count
// and reports host ns per op. It says what the layer costs when nothing
// else competes for the cache — a floor for its share of a real run — and
// it moves when, and only when, that layer's code changes.

// sink keeps the compiler from discarding a kernel's loads.
var sink uint64

// timePerOp runs fn (n ops) and returns ns per op.
func timePerOp(n int, fn func(n int)) float64 {
	t := time.Now()
	fn(n)
	return float64(time.Since(t)) / float64(n)
}

// kernelEngine: one self-rescheduling event, the wheel's near path.
func kernelEngine(n int) {
	e := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		if count++; count < n {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run(sim.Infinity)
}

// kernelEngineFar: 64 outstanding events, each re-armed past the wheel
// window, so every schedule lands in the overflow heap.
func kernelEngineFar(n int) {
	const outstanding = 64
	e := sim.NewEngine()
	count := 0
	var tick func()
	tick = func() {
		if count++; count+outstanding <= n {
			e.After(sim.DefaultWheelWindow+1+sim.Time(count%outstanding), tick)
		}
	}
	for i := 0; i < outstanding; i++ {
		e.After(sim.DefaultWheelWindow+1+sim.Time(i), tick)
	}
	e.Run(sim.Infinity)
}

// kernelMesh: Send plus delivery on a side x side mesh.
func kernelMesh(side int) func(n int) {
	return func(n int) {
		eng := sim.NewEngine()
		cfg := noc.DefaultConfig()
		cfg.Width, cfg.Height = side, side
		m := noc.New(cfg, eng)
		nodes := side * side
		for i := 0; i < nodes; i++ {
			m.Attach(i, func(any) {})
		}
		for i := 0; i < n; i++ {
			m.Send(i%nodes, (i*7+5)%nodes, noc.ClassRequest, 1, nil)
			if i%1024 == 0 {
				eng.Run(sim.Infinity)
			}
		}
		eng.Run(sim.Infinity)
	}
}

func l1() *cache.Cache { return cache.New(puno.DefaultConfig().L1) }

func kernelCacheHit(n int) {
	c := l1()
	for i := 0; i < 256; i++ {
		c.Insert(mem.Line(uint64(i)*mem.LineBytes), cache.Shared, mem.LineData{})
	}
	for i := 0; i < n; i++ {
		if c.Access(mem.Line(uint64(i%256)*mem.LineBytes)) != nil {
			sink++
		}
	}
}

// kernelCacheInsert streams distinct lines through the array: once it is
// full every insert evicts.
func kernelCacheInsert(n int) {
	c := l1()
	for i := 0; i < n; i++ {
		if _, _, evicted := c.Insert(mem.Line(uint64(i)*mem.LineBytes), cache.Shared, mem.LineData{}); evicted {
			sink++
		}
	}
}

// kernelIntern: 64 Ki distinct lines, first touch then re-lookups.
func kernelIntern(n int) {
	it := mem.NewInterner()
	for i := 0; i < n; i++ {
		sink += uint64(it.Intern(mem.Line(uint64(i&0xffff) * mem.LineBytes)))
	}
}

// kernelWord: one StoreWord and one LoadWord per iteration (n word ops).
func kernelWord(n int) {
	b := mem.NewBacking()
	for i := 0; i < n/2; i++ {
		a := mem.Addr(uint64(i&4095)*mem.LineBytes + uint64(i&7)*8)
		b.StoreWord(a, uint64(i))
		sink += b.LoadWord(a)
	}
}

func txLine(i, j int) mem.Line { return mem.Line(uint64((i*13+j)&1023) * mem.LineBytes) }

// kernelTx: a committing transaction of 8 reads and 4 writes that also
// answers one conflict probe.
func kernelTx(n int) {
	t, costs := htm.NewTx(0), htm.DefaultCosts()
	for i := 0; i < n; i++ {
		t.Begin(1, sim.Time(i), false)
		for j := 0; j < 8; j++ {
			t.RecordRead(txLine(i, j))
		}
		for j := 8; j < 12; j++ {
			l := txLine(i, j)
			t.RecordWrite(l, l.Word(0), uint64(i))
		}
		if t.ConflictsWith(txLine(i, 3), true) {
			sink++
		}
		sink += uint64(t.Commit(costs))
		t.Reset()
	}
}

// kernelAbort: a transaction of 4 writes that aborts — StartAbort, the undo
// log walked newest-first the way the node applies it, FinishAbort. The
// figure is per whole begin-write-abort cycle: the abort alone is too short
// to time from outside.
func kernelAbort(n int) {
	t, costs := htm.NewTx(0), htm.DefaultCosts()
	for i := 0; i < n; i++ {
		t.Begin(1, sim.Time(i), false)
		for j := 0; j < 4; j++ {
			l := txLine(i, j)
			t.RecordWrite(l, l.Word(0), uint64(i))
		}
		sink += uint64(t.StartAbort(costs, false))
		for j := t.LogEntries() - 1; j >= 0; j-- {
			sink += t.UndoEntry(j).Old
		}
		t.FinishAbort()
		t.Reset()
	}
}

func kernelSignature(n int) {
	s := htm.NewSignature(2048)
	for i := 0; i < n; i++ {
		l := mem.Line(uint64(i%4096) * mem.LineBytes)
		s.InsertRead(l)
		if s.TestWrite(l) {
			sink++
		}
	}
}

// stubEnv is the directory's node as far as the kernel needs one: a clock
// that does not move, a port that recycles what is sent into it, and an L2
// that is always a 20-cycle hit.
type stubEnv struct {
	it   *mem.Interner
	free []*coherence.Msg
}

func (e *stubEnv) Now() sim.Time { return 0 }
func (e *stubEnv) Send(_ sim.Time, m *coherence.Msg) {
	e.free = append(e.free, m)
}
func (e *stubEnv) NewMsg() *coherence.Msg {
	if n := len(e.free); n > 0 {
		m := e.free[n-1]
		e.free = e.free[:n-1]
		return m
	}
	return new(coherence.Msg)
}
func (e *stubEnv) Interner() *mem.Interner { return e.it }
func (e *stubEnv) LineData(mem.Line, mem.LineID) (mem.LineData, sim.Time) {
	return mem.LineData{}, 20
}
func (e *stubEnv) StoreLine(mem.Line, mem.LineID, mem.LineData) {}

// kernelDirectory serves n requests at one baseline directory, two per
// round on each of 64 lines: a GETS that finds the line Modified (forward
// to the owner, WBData, UNBLOCK -> Shared) and the old owner's upgrading
// GETX (invalidate the reader, UNBLOCK -> Modified). Every request is a
// full request-to-unblock service and the line ends each round where it
// began.
func kernelDirectory(n int) {
	const reader, owner, lines = 3, 9, 64
	env := &stubEnv{it: mem.NewInterner()}
	d := coherence.NewDirectory(0, 16, env, nil)
	line := func(i int) mem.Line { return mem.Line(uint64(i%lines) * 16 * mem.LineBytes) }
	var m coherence.Msg
	getx := func(l mem.Line) {
		m = coherence.Msg{Type: coherence.MsgGETX, Line: l, Src: owner, Requester: owner, IsWrite: true, NeedData: true}
		d.Handle(&m)
		m = coherence.Msg{Type: coherence.MsgUnblock, Line: l, Src: owner, Success: true}
		d.Handle(&m)
	}
	for i := 0; i < lines; i++ {
		getx(line(i))
	}
	for i := 0; i < n/2; i++ {
		l := line(i)
		m = coherence.Msg{Type: coherence.MsgGETS, Line: l, Src: reader, Requester: reader}
		d.Handle(&m)
		m = coherence.Msg{Type: coherence.MsgWBData, Line: l, Src: owner, HasData: true}
		d.Handle(&m)
		m = coherence.Msg{Type: coherence.MsgUnblock, Line: l, Src: reader, Success: true}
		d.Handle(&m)
		getx(l)
	}
	sink += d.Stats().Requests
}

// kernelProgram draws n transactions from one node's intruder stream.
func kernelProgram(n int) {
	rng := sim.NewRNG(1)
	prog := puno.MustWorkload("intruder").WithTxPerCPU(n).Program(0, rng)
	for {
		tx, ok := prog.Next(rng)
		if !ok {
			return
		}
		sink += uint64(len(tx.Ops))
	}
}

func kernelKey(i int) serve.Key {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return sha256.Sum256(b[:])
}

// waitJob blocks until the job is terminal.
func waitJob(j *serve.Job) serve.JobState {
	for {
		st, _, changed := j.Snapshot()
		if st.Terminal() {
			return st
		}
		<-changed
	}
}

// serveKernels measures the service's layers below the socket, on an
// instance of their own: key derivation, the LRU, and Service.Submit on a
// hit and on a miss.
func serveKernels(div int, lm layerMetrics) error {
	scale := func(n int) int { return max(n/div, 8) }

	wl, err := puno.WorkloadByName("kmeans")
	if err != nil {
		return err
	}
	wl = wl.WithTxPerCPU(serveTxPer)
	cfg := puno.DefaultConfig()
	lm.set("serve.buildkey_us", timePerOp(scale(20_000), func(n int) {
		for i := 0; i < n; i++ {
			cfg.Seed = uint64(i + 1)
			var k serve.Key
			if k, err = serve.BuildKey("bench", cfg, wl); err != nil {
				return
			}
			sink += uint64(k[0])
		}
	})/1e3)
	if err != nil {
		return err
	}

	c, err := serve.NewCache(0, "")
	if err != nil {
		return err
	}
	artifact := make([]byte, 1500) // about one punores/1 result
	const resident = 512           // below the LRU's 1024, so every Get hits
	keys := make([]serve.Key, resident)
	for i := range keys {
		keys[i] = kernelKey(i)
		c.Put(keys[i], artifact)
	}
	lm.set("serve.cache_get_ns", timePerOp(scale(1_000_000), func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := c.Get(keys[i%resident]); ok {
				sink++
			}
		}
	}))
	// Distinct keys: past the first 512 every Put evicts.
	lm.set("serve.cache_put_us", timePerOp(scale(50_000), func(n int) {
		for i := 0; i < n; i++ {
			c.Put(kernelKey(resident+i), artifact)
		}
	})/1e3)

	svc, err := serve.New(serve.Options{CodeVersion: "bench-kernel"})
	if err != nil {
		return err
	}
	defer svc.Drain()
	spec := serve.Spec{Workload: "kmeans", Scheme: "PUNO", TxPerCPU: serveTxPer}
	submit := func(seed uint64, wantCached bool) error {
		spec.Seed = seed
		j, err := svc.Submit(spec)
		if err != nil {
			return err
		}
		if st := waitJob(j); st != serve.StateDone || j.Cached != wantCached {
			return fmt.Errorf("Submit(seed %d): state %v, cached %v (want %v)", seed, st, j.Cached, wantCached)
		}
		return nil
	}
	lm.set("serve.submit_miss_ms", timePerOp(scale(64), func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = submit(uint64(i+1), false)
		}
	})/1e6)
	if err != nil {
		return err
	}
	hits := func(n int) {
		for i := 0; i < n && err == nil; i++ {
			err = submit(1, true)
		}
	}
	lm.set("serve.submit_hit_us", timePerOp(scale(50_000), hits)/1e3)
	const counted = 1000
	objects, _ := mallocDelta(func() { hits(counted) })
	lm.set("serve.allocs_per_hit", objects/counted)
	return err
}

// runKernels measures every layer kernel. They do not depend on the
// workload, so each traced run carries the same set, taken on the same host
// minutes apart from its own spans.
func runKernels(e *env, lm layerMetrics) error {
	scale := func(n int) int { return max(n/e.sz.kernelDiv, 256) }
	for _, k := range []struct {
		metric string
		ops    int
		fn     func(n int)
	}{
		{"sim.kernel_ns_per_event", 3_000_000, kernelEngine},
		{"sim.kernel_far_ns_per_event", 1_000_000, kernelEngineFar},
		{"noc.kernel_ns_per_send", 1_000_000, kernelMesh(4)},
		{"noc.kernel64_ns_per_send", 1_000_000, kernelMesh(8)},
		{"cache.kernel_ns_per_access", 10_000_000, kernelCacheHit},
		{"cache.kernel_ns_per_insert_evict", 2_000_000, kernelCacheInsert},
		{"mem.kernel_ns_per_intern", 4_000_000, kernelIntern},
		{"mem.kernel_ns_per_word", 4_000_000, kernelWord},
		{"htm.kernel_ns_per_tx", 300_000, kernelTx},
		{"htm.kernel_ns_per_abort", 500_000, kernelAbort},
		{"htm.kernel_sig_ns_per_op", 5_000_000, kernelSignature},
		{"coherence.kernel_ns_per_request", 1_000_000, kernelDirectory},
		{"stamp.kernel_ns_per_tx", 100_000, kernelProgram},
	} {
		lm.set(k.metric, timePerOp(scale(k.ops), k.fn))
	}
	var err error
	lm.set("runner.map_overhead_us", timePerOp(scale(50_000), func(n int) {
		_, err = runner.Map(context.Background(), n, runner.Options{Workers: e.workers},
			func(context.Context, int) (int, error) { return 0, nil })
	})/1e3)
	if err != nil {
		return err
	}
	return serveKernels(e.sz.kernelDiv, lm)
}
