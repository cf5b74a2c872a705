// Package pdes runs one simulated machine across several worker goroutines
// — conservative parallel discrete-event simulation over the mesh — while
// reproducing the serial run bit for bit.
//
// # Topology and lookahead
//
// The machine's nodes are split into contiguous ranges (horizontal mesh
// regions: node ids are row-major, so a contiguous id range is a band of
// rows). Each shard is an ordinary machine.Machine owning its range: local
// controllers, a private event engine and two-level wheel, and a private
// mesh instance that carries only node-local (src == dst) messages. Every
// remote message instead crosses the one coordinator-owned global mesh,
// whose link state all remote traffic contends on exactly as in a serial
// run.
//
// Shards advance in bounded windows. With L = noc.MinRemoteLatency — the
// cheapest possible remote delivery: two router pipelines plus one link
// crossing — a message sent at cycle t cannot arrive before t+L, so events
// in [T, T+L) (T = the earliest pending event across shards) are closed
// under cross-shard influence: nothing a shard does inside the window can
// schedule work for another shard inside it. Each window, every shard with
// an event in range executes its local events in parallel with the others;
// staged remote sends are then routed and injected at the commit. No
// rollback is ever needed.
//
// # Bit-determinism: the (cycle, seq) merge
//
// The serial engine executes events in (time, sequence) order, and every
// observable — results, event traces, RNG draws — inherits that order. The
// coordinator reproduces it exactly:
//
//   - Events executed inside a window are recorded per shard as entries in
//     local execution order, which is (time, seq) order for that shard's
//     queue. A commit k-way merges the shards' entry queues by (cycle,
//     serial seq) and replays each entry's effects — event-sink emissions,
//     and the schedules/sends it performed — in merged order. Events with
//     no effects are not recorded at all: they consume no sequence numbers
//     and emit nothing, so the merge never needs to see them.
//
//   - A schedule that happens during a window gets a provisional sequence
//     (the shard engine's counter starts the run at 1<<62, above any
//     serial seq, and never resets — provisional seqs are unique for the
//     whole run). The commit replay assigns the true serial sequences:
//     walking entries in merged order, every schedule and every remote
//     send consumes the next global sequence number exactly as the serial
//     engine would have. Rather than observing each schedule call, an
//     entry records the engine's seq counter before and after it ran
//     (seqLo, seqHi) and each staged send records the counter at its stage
//     point, which reconstructs the schedule/send interleaving: the replay
//     fills the shard's run-lifetime renumber table (provisional − base →
//     serial) arithmetically. A provisional entry's scheduling parent
//     always executed earlier on the same shard (live schedules are
//     shard-local) and each renum slot is written exactly once, so an
//     entry's serial seq is known before it reaches its queue head — the
//     merge never stalls, even when parent and child commit batches apart.
//
//   - Pending events are NOT eagerly renumbered: a provisional seq orders
//     correctly against every seq assigned later (serial seqs only grow,
//     and shard-local provisional order matches serial order), so the only
//     pending events that must carry their serial seq are those that can
//     tie with an earlier-assigned serial key at the same cycle. Those
//     sites are exactly where serial-keyed events enter a shard's queue:
//     the commit renumbers the spill list (plus its in-horizon residents'
//     same-cycle buckets — Engine.RekeyOverflow) and, before injecting
//     remote deliveries, the wheel buckets those deliveries land in
//     (Engine.RekeyBucket). Everything else keeps its provisional seq for
//     life; the merge resolves it through the renum table when (and if)
//     the event's entry is committed.
//
//   - Remote sends are staged, not delivered: the commit assigns their
//     serial seqs during the merge, then replays all of them in one batched
//     pass through Mesh.ReserveRoute on the global mesh (link contention
//     resolves serially, in merged order) and injects each delivery into
//     the destination shard with its serial sequence number. The injection
//     time t ≥ send + L ≥ the window end, so it never lands in a shard's
//     already-executed past. Injection happens after the bulk rekey: the
//     injected serial seqs interleave with the rekeyed ones, and
//     chainInsert's positional walk places them correctly among
//     serial-keyed events.
//
// # Window coalescing and the empty fast path
//
// Most windows stage no cross-shard send at all — shards run independent
// stretches far longer than the lookahead. The coordinator therefore does
// not commit per window: entries, emissions, and the engine seq counters
// simply accumulate, and the per-window "commit" is an O(shards) check
// that nothing was staged. A real commit runs only when (a) a window
// staged at least one remote send — every staged send is then from that
// last window, so its delivery lands at or after the window end and the
// batch is still causally closed; (b) coalesceWindows windows have
// accumulated, bounding the batch's memory and keeping the certification
// surface small; or (c) the run ends with a sink installed (emissions must
// flow; nothing else in a sendless trailing batch is observable).
//
// Batching cannot change the output: windows in a batch are disjoint and
// increasing in time (nothing is injected between them), so each shard's
// accumulated entry list is still (cycle, seq)-sorted and the global merged
// order — hence every serial seq assignment, route reservation, and
// emission — is identical no matter where the commit boundaries fall.
//
// Window execution is parallel but each shard touches only its own state;
// the line interner is the one shared structure (mutex-guarded assignment,
// lock-free LineAt over a pre-sized table — see mem.Interner.SetShared).
// Raw LineIDs depend on cross-shard interleaving, so they never escape:
// trace serialization renumbers them into emission order
// (trace.EventTrace.Normalized), under which a sharded capture is
// byte-identical to the serial one.
package pdes

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/sim"
)

// provSeqBase is where every shard engine's sequence counter starts after
// node-start events are seeded, and it never resets: far above any serial
// sequence number, so a provisional seq is recognizable for the whole run
// and — because earlier events sort before same-cycle later schedules in
// the serial order too — sorts correctly even before renumbering.
const provSeqBase = uint64(1) << 62

// coalesceWindows bounds how many send-free windows accumulate before the
// coordinator commits anyway. The bound keeps batch memory proportional to
// a handful of windows and keeps the determinism argument local (a batch is
// re-certified every K windows, not once per run); its value only moves
// the amortization point, never the output.
const coalesceWindows = 8

// send records one staged remote message and the shard engine's seq
// counter at the moment it was staged. The counter value positions the
// send among its entry's schedules: the serial engine hands out sequence
// numbers to schedules and send deliveries in exactly the order the
// handler makes them, and seqAt reconstructs that interleaving without
// observing each schedule call. The routing header (src, dst, class,
// flits) is copied out while the message is cache-hot so the commit's
// reservation pass never dereferences thousands of cold messages.
type send struct {
	msg   *coherence.Msg
	seqAt uint64
	src   int32
	dst   int32
	class noc.Class
	flits int32
}

// route is one merged remote send awaiting the batched reservation pass:
// its message and copied routing header, the cycle it was sent, and the
// serial seq its delivery event must carry.
type route struct {
	msg   *coherence.Msg
	at    sim.Time
	gseq  uint64
	src   int32
	dst   int32
	class noc.Class
	flits int32
}

// provFlag marks an entry key as a still-provisional seq offset. Serial
// seqs stay below 1<<31 (guarded in commit) and executed cycles below
// 1<<32 (guarded in Eligible), so an entry's merge key packs into one
// uint64 — cycle<<32 | serial seq — and the merge scan is single-compare.
const provFlag = uint32(1) << 31

// entry is one executed event with effects in a shard's batch — the
// engine's 20-byte drain log record: the cycle it ran at, the seq it ran
// under (serial, or a provFlag-tagged provisional offset if scheduled
// this batch), and the END of its schedule span (as an offset from
// provSeqBase), send list, and staged-emission slice. The start bounds
// are implicit: entries consume the batch's seqs, sends, and emissions
// contiguously, so replay derives them from per-shard cursors.
type entry = sim.DrainEntry

type shard struct {
	m      *machine.Machine
	eng    *sim.Engine
	lo, hi int
	// nextAt caches the shard's earliest pending event time between
	// windows: runWindow refreshes it from the drain that ends the window,
	// and commit lowers it when an injection lands earlier. The
	// coordinator's window selection is pure arithmetic over these.
	nextAt  sim.Time
	stage   probe.Buffer // batch-local event-sink staging (see Emit)
	entries []entry
	sends   []send
	renum   []uint64 // provisional seq - provSeqBase → serial seq; a slot is valid once its batch's replay writes it
	head    int      // commit cursor into entries
	headM   uint64   // resolved merge key of entries[head]: cycle<<32 | seq
	// batchSeq is the provisional-seq offset the current batch started at;
	// rSeq/rSend/rEmit are replay cursors tracking how much of the batch's
	// seq span, send list, and staged emissions have been consumed.
	batchSeq uint32
	rSeq     uint32
	rSend    int32
	rEmit    int32
	sendN    int32 // == len(sends): the engine drain's first effect counter, bumped by xsend
	emitN    int32 // == stage.Len(): its second, bumped by Emit
	xsend    func(*coherence.Msg)
	work     chan sim.Time
	done     chan struct{}
}

// Emit implements probe.Sink: a traced run installs the shard itself as its
// machine's event sink, so emissions are staged until the commit replays
// them to the run's real sink in merged order.
func (sh *shard) Emit(e probe.Event) {
	sh.stage.Emit(e)
	sh.emitN++
}

// Coordinator owns a sharded machine: the shard set, the global mesh, the
// shared interner, and the window loop. Like machine.Machine it is a
// reusable arena: Reset rebuilds it for a new (cfg, wl) retaining every
// allocation, and a fresh and a reused coordinator run identically.
type Coordinator struct {
	cfg     machine.Config
	wl      machine.Workload
	it      *mem.Interner
	mesh    *noc.Mesh // global link state; remote traffic and stats
	meshEng *sim.Engine
	sink    probe.Sink
	shards  []*shard
	owner   []int32 // node id → shard index
	gseq    uint64
	// coalesced counts the send-free windows that skipped the commit
	// barrier (diagnostics; lets tests assert the coalescing path ran).
	coalesced int

	// Scratch reused across commits / runs.
	parts   []*shard
	routes  []route
	results []*machine.Result
	ms      []*machine.Machine
}

// Eligible reports whether cfg/wl can run under the coordinator. Ineligible
// configurations (serial-only observables, schemes with cross-node shared
// state, or workloads whose footprint cannot be pre-sized) fall back to the
// serial path; callers dispatch with this predicate so sharding is never
// observable, only faster.
func Eligible(cfg machine.Config, wl machine.Workload) bool {
	if cfg.Shards <= 1 {
		return false
	}
	if cfg.SampleInterval > 0 {
		return false
	}
	if cfg.Scheme == machine.SchemeATS {
		return false
	}
	if cfg.MaxCycles >= 1<<32 {
		return false // executed cycles must fit the packed 32-bit merge key
	}
	if _, ok := wl.(machine.FootprintHinter); !ok {
		return false
	}
	return true
}

// New builds a coordinator for cfg (whose Shards must be > 1 and Eligible
// must accept) running wl.
func New(cfg machine.Config, wl machine.Workload) (*Coordinator, error) {
	c := &Coordinator{}
	if err := c.Reset(cfg, wl); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds the coordinator for (cfg, wl), reusing shard machines,
// engines, meshes, and scratch — the sharded counterpart of Machine.Reset,
// with the same guarantee: a reused coordinator is indistinguishable from a
// fresh one. Reset may be called in any state, including after a failed or
// hung run.
func (c *Coordinator) Reset(cfg machine.Config, wl machine.Workload) error {
	if !Eligible(cfg, wl) {
		return fmt.Errorf("pdes: configuration is not shardable (Shards=%d, scheme=%v)", cfg.Shards, cfg.Scheme)
	}
	nsh := cfg.Shards
	if nsh > cfg.Nodes {
		nsh = cfg.Nodes
	}
	c.cfg, c.wl = cfg, wl
	c.sink = cfg.EventSink
	c.gseq = 0
	c.routes = c.routes[:0]

	if c.it == nil {
		c.it = mem.NewInterner()
	}
	// Reset and pre-size serially, then arm for shared use: LineAt stays
	// lock-free only because the table never grows past the footprint hint
	// while shards run.
	c.it.SetShared(false)
	c.it.Reset()
	c.it.Grow(wl.(machine.FootprintHinter).FootprintLines(cfg.Nodes))
	c.it.SetShared(true)

	if c.meshEng == nil {
		c.meshEng = sim.NewEngine()
	} else {
		c.meshEng.Reset()
	}
	if c.mesh == nil {
		c.mesh = noc.New(cfg.Mesh, c.meshEng)
	} else {
		c.mesh.Reset(cfg.Mesh, c.meshEng)
	}

	if len(c.shards) != nsh {
		c.shards = make([]*shard, nsh)
		for i := range c.shards {
			sh := &shard{}
			sh.xsend = func(msg *coherence.Msg) {
				sh.sends = append(sh.sends, send{
					msg: msg, seqAt: sh.eng.Seq(),
					src: int32(msg.Src), dst: int32(msg.Dst),
					class: msg.Class(), flits: int32(msg.Flits()),
				})
				sh.sendN++
			}
			c.shards[i] = sh
		}
	}
	if cap(c.owner) < cfg.Nodes {
		c.owner = make([]int32, cfg.Nodes)
	}
	c.owner = c.owner[:cfg.Nodes]

	scfg := cfg
	for i, sh := range c.shards {
		sh.lo, sh.hi = i*cfg.Nodes/nsh, (i+1)*cfg.Nodes/nsh
		for n := sh.lo; n < sh.hi; n++ {
			c.owner[n] = int32(i)
		}
		sh.stage.Reset()
		sh.entries = sh.entries[:0]
		sh.sends = sh.sends[:0]
		sh.renum = sh.renum[:0]
		sh.head = 0
		sh.batchSeq = 0
		sh.sendN = 0
		sh.emitN = 0
		sh.nextAt = sim.Infinity
		if c.sink != nil {
			scfg.EventSink = sh
		} else {
			scfg.EventSink = nil
		}
		if sh.m == nil {
			m, err := machine.NewShard(scfg, wl, sh.lo, sh.hi, c.it, sh.xsend)
			if err != nil {
				return err
			}
			sh.m = m
		} else if err := sh.m.ResetShard(scfg, wl, sh.lo, sh.hi, c.it, sh.xsend); err != nil {
			return err
		}
		sh.eng = sh.m.Engine()
	}
	// Remote messages pop from the sender's pool and recycle into the
	// receiver's; level the pools so net-sender shards don't allocate
	// fresh messages every run.
	if c.ms == nil || len(c.ms) != len(c.shards) {
		c.ms = make([]*machine.Machine, len(c.shards))
	}
	for i, sh := range c.shards {
		c.ms[i] = sh.m
	}
	machine.BalanceMsgPools(c.ms)
	return nil
}

// LineTable returns the shared interner's lines in assignment order — the
// sharded counterpart of Machine.LineTable. Assignment order here is a
// cross-shard interleaving, so a trace built on this table must be
// normalized before it is compared or saved.
func (c *Coordinator) LineTable() []mem.Line {
	out := make([]mem.Line, c.it.Len())
	for i := range out {
		out[i] = c.it.LineAt(mem.LineID(i + 1))
	}
	return out
}

// Run executes the workload to completion and returns the measurements —
// the sharded Machine.Run. The merged Result and (normalized) event stream
// are bit-identical to the serial run's for any shard count.
func (c *Coordinator) Run() (*machine.Result, error) {
	// Seed node starts with their serial sequence numbers (the serial start
	// loop schedules node i's first fetch with seq i), then park each
	// engine's counter in the provisional range and prime the nextAt cache.
	for _, sh := range c.shards {
		for i := sh.lo; i < sh.hi; i++ {
			sh.eng.SetSeq(uint64(i))
			sh.m.StartNode(i)
		}
		sh.eng.SetSeq(provSeqBase)
		sh.nextAt = sim.Infinity
		if at, _, ok := sh.eng.Peek(); ok {
			sh.nextAt = at
		}
	}
	c.gseq = uint64(c.cfg.Nodes)
	c.coalesced = 0

	// Per-run workers: one goroutine per shard, handed one window at a
	// time. The channel pair gives the race detector (and the memory
	// model) the happens-before edges the barrier protocol relies on. The
	// defer joins the workers, not just signals them: an aborted run (hang,
	// handler error) must not leave a goroutine still touching shard state
	// when the caller Resets and Runs again.
	//
	// On a single-P runtime the workers cannot actually overlap, so every
	// window barrier would just be two scheduler round-trips per shard;
	// run the participants inline instead. Window execution is shard-local
	// and commit order is fixed by (cycle, seq), so which goroutine runs a
	// window cannot affect the output.
	inline := runtime.GOMAXPROCS(0) == 1
	var workers sync.WaitGroup
	if !inline {
		for _, sh := range c.shards {
			sh.work = make(chan sim.Time, 1)
			sh.done = make(chan struct{}, 1)
			workers.Add(1)
			go func(sh *shard) {
				defer workers.Done()
				for wend := range sh.work {
					runWindow(sh, wend)
					sh.done <- struct{}{}
				}
			}(sh)
		}
		defer func() {
			for _, sh := range c.shards {
				close(sh.work)
			}
			workers.Wait()
		}()
	}

	lookahead := noc.MinRemoteLatency
	maxC := c.cfg.MaxCycles
	hung := false
	windows := 0 // send-free windows accumulated since the last commit
	for {
		t := sim.Infinity
		for _, sh := range c.shards {
			if sh.nextAt < t {
				t = sh.nextAt
			}
		}
		if t == sim.Infinity {
			break // every queue drained
		}
		if t > maxC {
			hung = true // mirrors Engine.Run stopping at its limit
			break
		}
		wend := t + lookahead
		if wend > maxC+1 {
			wend = maxC + 1
		}
		parts := c.parts[:0]
		for _, sh := range c.shards {
			if sh.nextAt < wend {
				parts = append(parts, sh)
			}
		}
		c.parts = parts
		if inline {
			for _, sh := range parts {
				runWindow(sh, wend)
			}
		} else {
			// Run the first participant inline; the rest on their workers.
			for _, sh := range parts[1:] {
				sh.work <- wend
			}
			runWindow(parts[0], wend)
			for _, sh := range parts[1:] {
				<-sh.done
			}
		}
		// A handler failure surfaces in shard order — window execution is
		// deterministic per shard, so the chosen error is too.
		for _, sh := range c.shards {
			if err := sh.m.RunErr(); err != nil {
				return nil, err
			}
		}
		// The empty-window fast path: when nothing was staged, this whole
		// "commit" is the O(shards) scan below. Any staged send forces a
		// real commit now (all staged sends are then from this window, so
		// the batch stays causally closed); otherwise one is forced every
		// coalesceWindows windows to bound batch memory.
		staged := false
		for _, sh := range c.shards {
			if len(sh.sends) > 0 {
				staged = true
				break
			}
		}
		windows++
		if staged || windows >= coalesceWindows {
			c.commit()
			windows = 0
		} else {
			c.coalesced++
		}
	}
	// Flush the trailing send-free batch only when its emissions are
	// observable; its remaining effect is seq bookkeeping nobody reads.
	if c.sink != nil {
		c.commit()
	}

	active := 0
	for _, sh := range c.shards {
		active += sh.m.Active()
	}
	if hung {
		if active > 0 {
			return nil, machine.ErrHung
		}
		// Threads all finished; whatever trails beyond MaxCycles is never
		// executed — exactly what the serial drain pass does at its limit.
	} else if active > 0 {
		return nil, fmt.Errorf("machine: %d threads stalled with an empty event queue (protocol deadlock)", active)
	}

	c.results = c.results[:0]
	for _, sh := range c.shards {
		c.results = append(c.results, sh.m.FinalizeShard())
	}
	return machine.MergeShardResults(c.wl.Name(), c.cfg.Scheme, c.cfg.Nodes, c.results, c.mesh.Stats()), nil
}

// runWindow executes one shard's events in [now, wend), appending an entry
// per event that had effects (schedules, sends, or emissions) onto the
// shard's batch, and leaves the shard's next pending time in nextAt. Runs
// on the shard's worker goroutine; touches only shard-local state (plus
// the shared interner through the machine's handlers).
//
//puno:hot
//puno:worker
func runWindow(sh *shard, wend sim.Time) {
	// The engine drains the window in one tight loop, recording effectful
	// events itself: an event that only emitted probe events still gets an
	// entry, so the merged stream interleaves emissions in serial order.
	sh.entries, sh.nextAt = sh.eng.DrainBefore(wend, provSeqBase, provFlag, sh.entries, &sh.sendN, &sh.emitN)
}

// commit merges the batch's entries by (cycle, serial seq), replaying each
// in serial order: emissions flow to the real sink and serial seqs are
// assigned to every schedule and send. Pending provisional events are then
// renumbered only where a serial key could tie with them at the same cycle
// (the spill list, and the wheel buckets injections land in); everything
// else keeps its provisional seq, which already sorts correctly against
// every key assigned later. Finally the staged remote sends are routed and
// injected in one batched reservation pass. Single-threaded, after the
// window barrier.
//
// Each shard's next merge key is resolved once, when the entry reaches the
// shard's head, and cached — by then its scheduling parent (always an
// earlier entry of the same shard; schedules are shard-local) has been
// replayed, so the resolution is final and the selection loop is pure
// comparisons over the cached keys.
//
//puno:hot
func (c *Coordinator) commit() {
	parts := c.parts[:0]
	for _, sh := range c.shards {
		if len(sh.entries) == 0 {
			continue
		}
		parts = append(parts, sh)
		c.growRenum(sh)
		sh.head = 0
		sh.headM = c.mergeKey(sh, &sh.entries[0])
		sh.rSeq = sh.batchSeq
		sh.rSend = 0
		sh.rEmit = 0
	}
	c.parts = parts
	if len(parts) == 0 {
		return
	}
	// The packed key gives serial seqs 31 bits; a run that exhausts them
	// would mis-merge silently, so refuse loudly (no feasible simulation
	// gets near 2^31 schedule actions before hitting MaxCycles first).
	if c.gseq >= 1<<31 {
		panic("pdes: serial sequence space exceeds the packed merge key")
	}
	gseq := c.gseq
	// Merge by a k-way min selection per entry. Shards interleave at cycle
	// granularity, so consecutive entries rarely come from the same shard
	// and maintaining a sorted part order costs more than it saves; instead
	// each exhausted shard parks its head key at MaxUint64 and the fixed
	// total-entry count bounds the loop, so selection needs no liveness or
	// termination checks. The common case — no send, no emission —
	// renumbers inline; replay handles the rest.
	total := 0
	for _, sh := range parts {
		total += len(sh.entries)
	}
	for i := 0; i < total; i++ {
		best := parts[0]
		for _, sh := range parts[1:] {
			if sh.headM < best.headM {
				best = sh
			}
		}
		h := best.head
		e := &best.entries[h]
		h++
		best.head = h
		if e.Send == best.rSend && e.Emit == best.rEmit {
			renum := best.renum
			for p, end := best.rSeq, e.SeqHi; p < end; p++ {
				renum[p] = gseq
				gseq++
			}
			best.rSeq = e.SeqHi
		} else {
			gseq = c.replay(best, e, gseq)
		}
		if h < len(best.entries) {
			best.headM = c.mergeKey(best, &best.entries[h])
		} else {
			best.headM = ^uint64(0)
		}
	}
	c.gseq = gseq
	// Renumber the spill list (and the wheel buckets sharing a cycle
	// with its in-horizon residents): serial-keyed injections can land
	// there, and a same-cycle tie against a still-provisional seq would
	// break the serial order. The per-shard renumbering is strictly
	// increasing, so the mapping preserves chain and list order.
	for _, sh := range parts {
		sh.eng.RekeyOverflow(provSeqBase, sh.renum)
		sh.entries = sh.entries[:0]
		sh.sends = sh.sends[:0]
		sh.stage.Reset()
		sh.head = 0
		sh.sendN = 0
		sh.emitN = 0
		sh.batchSeq = uint32(sh.eng.Seq() - provSeqBase)
	}
	// Batched reservation pass: all of the batch's remote routes cross the
	// global mesh in merged order, so link contention resolves exactly as
	// in the serial run.
	for i := range c.routes {
		r := &c.routes[i]
		r.at = c.mesh.ReserveRoute(r.at, int(r.src), int(r.dst), r.class, int(r.flits))
	}
	// Renumber every bucket a delivery lands in before injecting any of
	// them: once a serial-keyed delivery is placed in a chain, mapping a
	// provisional neighbor to a smaller serial seq afterwards would leave
	// the chain unsorted.
	var lastD *shard
	var lastAt sim.Time
	for i := range c.routes {
		r := &c.routes[i]
		d := c.shards[c.owner[r.dst]]
		if d == lastD && r.at == lastAt {
			continue // bucket already renumbered for this batch
		}
		lastD, lastAt = d, r.at
		d.eng.RekeyBucket(r.at, provSeqBase, d.renum)
	}
	// Inject each delivery under its serial seq; chainInsert's positional
	// walk places it among the (now serial-keyed) same-cycle events.
	for i := range c.routes {
		r := &c.routes[i]
		d := c.shards[c.owner[r.dst]]
		save := d.eng.Seq()
		d.eng.SetSeq(r.gseq)
		d.m.InjectDeliver(r.at, r.msg)
		d.eng.SetSeq(save)
		if r.at < d.nextAt {
			d.nextAt = r.at
		}
	}
	c.routes = c.routes[:0]
}

// mergeKey resolves e's packed merge key (cycle<<32 | serial seq). A
// provisional key is always resolvable: its parent replayed earlier on the
// same shard — this commit or a previous one; the renum table spans the
// run — and wrote the slot.
//
//puno:hot
func (c *Coordinator) mergeKey(sh *shard, e *entry) uint64 {
	k := uint64(e.Key)
	if e.Key&provFlag != 0 {
		k = sh.renum[e.Key&^provFlag]
		if k == 0 {
			panic("pdes: provisional seq unresolved at merge head")
		}
	}
	return uint64(e.At)<<32 | k
}

// growRenum extends sh's run-lifetime provisional→serial table to cover
// every seq the engine has handed out. The table persists across commits —
// each slot is written exactly once, by the replay of the entry that
// consumed the seq — so growth only ever exposes fresh (zeroed) slots.
// Kept out of the hot merge path: it may allocate on growth.
func (c *Coordinator) growRenum(sh *shard) {
	n := int(sh.eng.Seq() - provSeqBase)
	if n <= len(sh.renum) {
		return
	}
	if cap(sh.renum) >= n {
		// No clear: every slot in the extension is written by this
		// commit's replay before anything reads it (the batch's entry
		// spans cover all seqs the engine handed out).
		sh.renum = sh.renum[:n]
		return
	}
	grown := make([]uint64, n, 2*n)
	copy(grown, sh.renum)
	sh.renum = grown
}

// replay applies one committed entry: forward its staged emissions to the
// run's real sink, then reconstruct its schedule/send interleaving from
// the recorded seq-counter marks, handing each effect the next global
// sequence number exactly as the serial engine would — schedules fill the
// run-lifetime renum table, sends join the batched reservation pass.
//
//puno:hot
func (c *Coordinator) replay(sh *shard, e *entry, gseq uint64) uint64 {
	if c.sink != nil {
		for _, ev := range sh.stage.Events()[sh.rEmit:e.Emit] {
			c.sink.Emit(ev)
		}
		sh.rEmit = e.Emit
	}
	p := uint64(sh.rSeq)
	end := uint64(e.SeqHi)
	for i := sh.rSend; i < e.Send; i++ {
		s := &sh.sends[i]
		sAt := s.seqAt - provSeqBase
		for p < sAt {
			sh.renum[p] = gseq
			gseq++
			p++
		}
		c.routes = append(c.routes, route{
			msg: s.msg, at: sim.Time(e.At), gseq: gseq,
			src: s.src, dst: s.dst, class: s.class, flits: s.flits,
		})
		gseq++
	}
	sh.rSend = e.Send
	for p < end {
		sh.renum[p] = gseq
		gseq++
		p++
	}
	sh.rSeq = e.SeqHi
	return gseq
}
