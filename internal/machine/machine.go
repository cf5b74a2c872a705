package machine

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/cm"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Machine is one simulated CMP instance, assembled from a Config and a
// Workload. Build it with New, run it with Run, and read the measurements
// from Result.
type Machine struct {
	cfg     Config
	eng     *sim.Engine
	mesh    *noc.Mesh
	home    mem.HomeMap
	backing *mem.Backing
	nodes   []*node
	dirs    []*coherence.Directory
	preds   []*core.Predictor
	rootRNG *sim.RNG

	// it is the machine-wide line interner: every memory-system table below
	// (backing store, directory slabs, l2Seen, HTM conflict sets) is a
	// dense slice indexed by the LineIDs it assigns, and every coherence
	// message carries its line's ID so no hot path hashes a line address.
	// Reset re-assigns IDs from scratch (retaining capacity), so a reused
	// arena and a fresh machine produce identical ID streams.
	it *mem.Interner
	// l2Seen[id-1] marks lines whose first L2 access (cold miss at memory
	// latency) already happened.
	l2Seen []bool

	res    Result
	active int
	runErr error

	// Controller next-free times (occupancy queueing).
	dirFree []sim.Time
	l1Free  []sim.Time

	// msgFree recycles coherence messages: every message is zeroed and
	// filled in place in a pooled struct at its send site (node.msgTo,
	// Directory.msgTo) and returned to the pool by the dispatcher the
	// moment its handler returns (handlers that need a message past that
	// point — parked directory requests, deferred grants — copy it by
	// value). In steady state the pool makes the protocol traffic
	// allocation-free and copy-free.
	msgFree []*coherence.Msg

	// scheme is cfg.Scheme's row of the scheme table; guard is the
	// notified-wait guard band, 2x the average cache-to-cache latency
	// unless cfg.NotifyGuardOverride replaces it. ats is the machine-wide
	// scheduler, live only while scheme.ats holds and kept across Reset.
	scheme schemeSpec
	guard  sim.Time
	ats    cm.ATSGroup
}

// newMsg pops a recycled message (fields NOT zeroed — the msgTo helpers
// zero it and fill it in place) or allocates the pool's next one.
func (m *Machine) newMsg() *coherence.Msg {
	if n := len(m.msgFree); n > 0 {
		msg := m.msgFree[n-1]
		m.msgFree = m.msgFree[:n-1]
		return msg
	}
	return &coherence.Msg{}
}

// freeMsg returns a delivered message to the pool. The caller must not
// retain the pointer.
func (m *Machine) freeMsg(msg *coherence.Msg) {
	m.msgFree = append(m.msgFree, msg)
}

// fail aborts the run with err (unrecoverable configuration or protocol
// problems detected mid-simulation).
func (m *Machine) fail(err error) {
	if m.runErr == nil {
		m.runErr = err
	}
	m.eng.Stop()
}

// dirEnv adapts the machine to the coherence.Env interface for one
// directory bank.
type dirEnv struct{ m *Machine }

func (e dirEnv) Now() sim.Time { return e.m.eng.Now() }

func (e dirEnv) NewMsg() *coherence.Msg { return e.m.newMsg() }

// Send puts msg on the mesh after delay cycles; every directory send
// carries at least the directory's own latency, so delay is never 0.
//
//puno:hot
func (e dirEnv) Send(delay sim.Time, msg *coherence.Msg) {
	e.m.eng.AfterEvent(delay, e.m, msg, mevSend<<32)
}

func (e dirEnv) Interner() *mem.Interner { return e.m.it }

func (e dirEnv) LineData(l mem.Line, id mem.LineID) (mem.LineData, sim.Time) {
	lat := L2HitLatency
	if !e.m.l2SeenAt(id) {
		e.m.markL2Seen(id)
		lat = MemLatency
	}
	return e.m.backing.LoadID(id), lat
}

func (e dirEnv) StoreLine(l mem.Line, id mem.LineID, d mem.LineData) {
	e.m.markL2Seen(id)
	e.m.backing.StoreID(id, d)
}

// l2SeenAt reports whether the line with the given ID already took its cold
// miss.
//
//puno:hot
func (m *Machine) l2SeenAt(id mem.LineID) bool {
	i := int(id)
	return i > 0 && i <= len(m.l2Seen) && m.l2Seen[i-1]
}

// markL2Seen records the line's cold miss, extending the table as needed.
func (m *Machine) markL2Seen(id mem.LineID) {
	n := int(id)
	if n > len(m.l2Seen) {
		m.l2Seen = mem.Extend(m.l2Seen, n)
	}
	m.l2Seen[n-1] = true
}

// New builds a machine running wl under cfg. The backing memory starts
// zeroed; use Backing to preload initial data before Run.
//
// New is implemented as Reset on an empty machine, so a freshly built
// machine and a reused arena execute the exact same construction path —
// the property that keeps sweep results independent of arena reuse.
func New(cfg Config, wl Workload) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, wl); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rebuilds m to run wl under cfg (whose Seed field seeds the run,
// exactly as in New). After Reset the machine is indistinguishable from
// New(cfg, wl): same construction order, same RNG stream, same Run
// trajectory. Reset may be called in any state, including after a failed
// run — the engine reset drops all pending events.
//
// Retained across Reset (when the node count and the sizes that shape them
// are unchanged): the event engine's slab and wheel, the mesh's link,
// coordinate and handler arrays, the interner and backing store, every
// node's L1 array, HTM set/undo/signature storage, TxLB, first-load,
// promoted-load and writeback tables, every directory's entry slab and index,
// the predictors' P-Buffers (while consecutive runs use a predicting scheme),
// the RMW predictors (while consecutive runs use RMW-Pred), the ATS
// scheduler's intensity and queue arrays, the coherence message pool, and
// the result's slices. Rebuilt on every Reset, because they belong to the
// (cfg, wl) pair rather than to the machine: each node's Program (with the
// generator's scratch buffers) and its two forked RNGs — a constant handful
// of small objects per node, independent of the scheme and of how many
// transactions or events the run then executes (TestWarmArenaRunAllocs).
func (m *Machine) Reset(cfg Config, wl Workload) error {
	if cfg.Nodes != cfg.Mesh.Width*cfg.Mesh.Height {
		return fmt.Errorf("machine: %d nodes does not match %dx%d mesh",
			cfg.Nodes, cfg.Mesh.Width, cfg.Mesh.Height)
	}
	if !cfg.Scheme.valid() {
		return fmt.Errorf("machine: unknown scheme %d", int(cfg.Scheme))
	}
	m.cfg = cfg
	m.scheme = schemeTable[cfg.Scheme]
	if m.eng == nil {
		m.eng = sim.NewEngine()
	} else {
		m.eng.Reset()
	}
	m.home = mem.NewHomeMap(cfg.Nodes)
	if m.it == nil {
		m.it = mem.NewInterner()
	}
	m.it.Reset()
	if fh, ok := wl.(FootprintHinter); ok {
		m.it.Grow(fh.FootprintLines(cfg.Nodes))
	}
	if m.backing == nil {
		m.backing = mem.NewBackingOn(m.it)
	} else {
		m.backing.Reset()
	}
	m.l2Seen = m.l2Seen[:0]
	if m.rootRNG == nil {
		m.rootRNG = sim.NewRNG(cfg.Seed)
	} else {
		m.rootRNG.Reseed(cfg.Seed)
	}
	if m.mesh == nil {
		m.mesh = noc.New(cfg.Mesh, m.eng)
	} else {
		m.mesh.Reset(cfg.Mesh, m.eng)
	}
	m.res.reset(wl.Name(), cfg.Scheme, cfg.Nodes)
	m.active = 0
	m.runErr = nil
	// msgFree is kept as-is: pooled messages are zeroed at every fill site,
	// so leftover contents are harmless.

	if len(m.nodes) != cfg.Nodes {
		m.dirs = make([]*coherence.Directory, cfg.Nodes)
		m.preds = make([]*core.Predictor, cfg.Nodes)
		m.nodes = make([]*node, cfg.Nodes)
	}
	m.dirFree = mem.Extend(m.dirFree[:0], cfg.Nodes)
	m.l1Free = mem.Extend(m.l1Free[:0], cfg.Nodes)
	m.guard = cfg.NotifyGuardOverride
	if m.guard == 0 {
		m.guard = 2 * m.mesh.AverageLatency(coherence.DataFlits)
	}
	if m.scheme.ats {
		m.ats.Reset(cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		var pred coherence.Predictor
		if m.scheme.predict {
			pcfg := core.PredictorConfig{Nodes: cfg.Nodes, DisableValidity: cfg.DisableValidity,
				TimeoutMultiplier: cfg.ValidityTimeoutMult}
			if m.preds[i] == nil {
				m.preds[i] = core.NewPredictor(pcfg, m.eng.Now)
			} else {
				m.preds[i].Reset(pcfg)
			}
			pred = m.preds[i]
		} else {
			m.preds[i] = nil
		}
		if m.dirs[i] == nil {
			m.dirs[i] = coherence.NewDirectory(i, cfg.Nodes, dirEnv{m}, pred)
		} else {
			m.dirs[i].Reset(pred)
		}
		// Every controller's sink is re-installed, so arena reuse cannot
		// leak a previous run's.
		m.dirs[i].SetProbe(cfg.EventSink)
		prog := wl.Program(i, m.rootRNG.Fork(1000+uint64(i)))
		if m.nodes[i] == nil {
			m.nodes[i] = newNode(i, m, prog)
		} else {
			m.nodes[i].reset(prog)
		}
		if cfg.EventSink != nil {
			m.nodes[i].tx.SetProbe(cfg.EventSink, m.eng.Now)
		} else {
			m.nodes[i].tx.SetProbe(nil, nil)
		}
		if cfg.SignatureBits > 0 {
			m.nodes[i].tx.UseSignatures(cfg.SignatureBits)
		}
	}
	m.mesh.Receive((*arrival)(m))
	return nil
}

// Backing exposes the memory image (preloading initial data; inspecting
// final state in tests).
func (m *Machine) Backing() *mem.Backing { return m.backing }

// Engine exposes the simulation clock (tests).
func (m *Machine) Engine() *sim.Engine { return m.eng }

//puno:hot
func (m *Machine) send(msg *coherence.Msg) {
	if sink := m.cfg.EventSink; sink != nil {
		sink.Emit(probe.Event{
			Cycle: m.eng.Now(),
			Arg:   probe.PackSend(uint8(msg.Type), msg.Dst, msg.Requester, msg.ReqID),
			Line:  msg.LID,
			Node:  int16(msg.Src),
			Kind:  probe.KindSend,
		})
	}
	m.mesh.Send(msg.Src, msg.Dst, msg.Class(), msg.Flits(), msg)
}

// Machine event codes: the high half of the sim.Handler word selects the
// dispatch, the low half carries the node id. Replacing per-message
// closures with these codes keeps deferred dispatch allocation-free.
const (
	mevSend   uint64 = iota // delayed directory send: put msg on the mesh
	mevDir                  // directory Handle
	mevFwd                  // L1 handleForward
	mevResp                 // L1 handleResponse
	mevWB                   // L1 handleWB
	mevWakeup               // core handleWakeup
)

// OnEvent implements sim.Handler for deferred message dispatch: a delayed
// directory send, or a delivery that waited for its controller.
func (m *Machine) OnEvent(arg any, word uint64) {
	msg := arg.(*coherence.Msg)
	if word>>32 == mevSend {
		m.send(msg)
		return
	}
	m.handle(word>>32, int(uint32(word)), msg)
}

// arrival is the machine's view as its mesh's arrival handler: the mesh
// schedules every delivery on it, with the destination node in the word.
type arrival Machine

// OnEvent implements sim.Handler for mesh arrivals.
func (a *arrival) OnEvent(arg any, word uint64) {
	(*Machine)(a).deliver(int(word), arg.(*coherence.Msg))
}

// deliver routes an arriving message to the right controller at node id:
// home-directory traffic to the directory slice, everything else to the
// L1/core. The directory and the L1 each process one message per occupancy
// window; later arrivals queue behind it, so message storms cost time.
// Writeback replies and wakeups take no occupancy.
//
//puno:hot
func (m *Machine) deliver(id int, msg *coherence.Msg) {
	code, clock, occ := mevResp, &m.l1Free[id], l1Occupancy
	switch msg.Type {
	case coherence.MsgGETS, coherence.MsgGETX, coherence.MsgUnblock,
		coherence.MsgWBData, coherence.MsgPUTX:
		code, clock, occ = mevDir, &m.dirFree[id], dirOccupancy
	case coherence.MsgFwdGETS, coherence.MsgFwdGETX:
		code = mevFwd
	case coherence.MsgWBAck, coherence.MsgWBStale:
		code, clock = mevWB, nil
	case coherence.MsgWakeup:
		code, clock = mevWakeup, nil
	}
	if clock != nil {
		if start := m.occupyStart(clock, occ); start > m.eng.Now() {
			m.eng.AtEvent(start, m, msg, code<<32|uint64(uint32(id)))
			return
		}
	}
	m.handle(code, id, msg)
}

// handle runs the controller code selects at node id on msg. The
// dispatcher owns the message: it returns to the pool when the handler
// returns.
//
//puno:hot
func (m *Machine) handle(code uint64, id int, msg *coherence.Msg) {
	switch code {
	case mevDir:
		m.dirs[id].Handle(msg)
	case mevFwd:
		m.nodes[id].handleForward(msg)
	case mevResp:
		m.nodes[id].handleResponse(msg)
	case mevWB:
		m.nodes[id].handleWB(msg)
	case mevWakeup:
		m.nodes[id].handleWakeup(msg)
	default:
		panic(fmt.Sprintf("machine: unknown event code %d", code))
	}
	m.freeMsg(msg)
}

// occupyStart reserves the controller guarded by nextFree and returns when
// the reserved window begins (now, when the controller is free).
func (m *Machine) occupyStart(nextFree *sim.Time, occ sim.Time) sim.Time {
	start := m.eng.Now()
	if *nextFree > start {
		start = *nextFree
	}
	*nextFree = start + occ
	return start
}

func (m *Machine) threadDone() { m.active-- }

// ErrHung is returned when the simulation exceeds Config.MaxCycles.
var ErrHung = errors.New("machine: simulation exceeded MaxCycles")

// Run executes the workload to completion and returns the measurements.
func (m *Machine) Run() (*Result, error) {
	m.active = m.cfg.Nodes
	for _, n := range m.nodes {
		n.start()
	}
	m.eng.Run(m.cfg.MaxCycles)
	if m.runErr != nil {
		return nil, m.runErr
	}
	if m.active > 0 {
		if m.eng.Pending() > 0 {
			return nil, ErrHung
		}
		return nil, fmt.Errorf("machine: %d threads stalled with an empty event queue (protocol deadlock)", m.active)
	}
	for i, n := range m.nodes {
		m.res.Cycles = max(m.res.Cycles, n.doneAt)
		ds := m.dirs[i].Stats()
		m.res.DirTxGETXBusy += ds.TxGETXBusy
		m.res.DirTxGETXServices += ds.TxGETX
		m.res.DirBusyAll += ds.BusyCycles
		m.res.DirBusyNacks += ds.BusyNacks
		m.res.DirUnicasts += ds.UnicastForwards
		m.res.DirMulticastFwds += ds.MulticastFwds
		m.res.Mispredictions += ds.Mispredictions
	}
	m.res.Net = m.mesh.Stats()
	return &m.res, nil
}

// Result returns the measurements collected so far (valid after Run).
func (m *Machine) Result() *Result { return &m.res }

// LineTable returns the machine's interned lines in assignment order: index
// i holds the line whose LineID is i+1. An event trace saves this table so
// its LineID-indexed events can be rendered as addresses later. Valid after
// Run (interning is first-touch, so the table is only complete then).
func (m *Machine) LineTable() []mem.Line {
	out := make([]mem.Line, m.it.Len())
	for i := range out {
		out[i] = m.it.LineAt(mem.LineID(i + 1))
	}
	return out
}

// Predictors exposes the per-directory PUNO predictors (nil entries when
// the scheme does not use prediction), for diagnostics.
func (m *Machine) Predictors() []*core.Predictor { return m.preds }

// L1 exposes node's L1 array, for diagnostics.
func (m *Machine) L1(node int) *cache.Cache { return m.nodes[node].l1 }

// DrainCaches flushes every Modified line (and any writeback in flight)
// into the backing store so tests can inspect final memory values. Call
// only after Run.
func (m *Machine) DrainCaches() {
	for _, n := range m.nodes {
		n.l1.ForEach(func(e *cache.Entry) {
			if e.State == cache.Modified {
				m.backing.Store(e.Line, e.Data)
			}
		})
		for i, l := range n.wbWait.lines { // sorted by construction
			m.backing.Store(l, n.wbWait.data[i])
		}
	}
}

// CheckInvariants verifies, at any point during or after a run:
//   - single writer / multiple readers: a line Modified in one L1 is
//     resident in no other;
//   - directory sharers ⊇ holders: every resident L1 copy of a line whose
//     entry is not busy is on that entry's sharer list;
//   - every Modified entry that is not busy names an owner that holds the
//     line Modified, or is writing it back;
//   - every entry with requests parked is busy and parks at most nodes-1 of
//     them (each node has one request outstanding, and the busy
//     requester's is the one being served).
//
// It reports the first violation in node, then directory, order and
// allocates nothing when there is none, so tests can call it as often as
// they like.
func (m *Machine) CheckInvariants() error {
	var err error
	for _, n := range m.nodes {
		n.l1.ForEach(func(e *cache.Entry) {
			if err != nil {
				return
			}
			l := e.Line
			if e.State == cache.Modified {
				for _, h := range m.nodes {
					if h != n && h.l1.Lookup(l) != nil {
						err = fmt.Errorf("SWMR violated: line %v is Modified at node %d and also resident at node %d", l, n.id, h.id)
						return
					}
				}
			}
			home := m.home.Home(l)
			if d := m.dirs[home]; !d.Busy(l) && !d.Lists(l, n.id) {
				err = fmt.Errorf("directory %d does not list node %d as a holder of %v", home, n.id, l)
			}
		})
		if err != nil {
			return err
		}
	}
	for home, d := range m.dirs {
		d.ForEachModified(func(l mem.Line, owner int) {
			if err != nil || d.Busy(l) || m.nodes[owner].wbWait.has(l) {
				return
			}
			if e := m.nodes[owner].l1.Lookup(l); e == nil || e.State != cache.Modified {
				err = fmt.Errorf("directory %d says %v owned by %d, but it holds no exclusive copy", home, l, owner)
			}
		})
		d.ForEachParked(func(l mem.Line, busy bool, parked int) {
			if err == nil && (!busy || parked > len(m.nodes)-1) {
				err = fmt.Errorf("directory %d parks %d requests for %v (busy %v); at most %d may wait on a busy entry",
					home, parked, l, busy, len(m.nodes)-1)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
