// Package noc models the on-chip interconnect: a 2D mesh with
// dimension-order routing, a fixed router pipeline depth, per-link
// serialization with contention, and flit-level traffic accounting. The
// model reproduces the quantities the paper measures — end-to-end message
// latency (which drives polling and backoff behaviour) and "router
// traversals by all network flits" (the Fig. 11 traffic metric) — without
// simulating individual flit hops, which would dominate simulation time
// while adding nothing to the studied effects.
package noc

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Class is the virtual-network class of a message. Separate classes mirror
// the request/forward/response virtual channels a deadlock-free directory
// protocol requires, and let the traffic report break flit-hops down by
// message role.
type Class int

// Message classes.
const (
	ClassRequest  Class = iota // GETS/GETX from L1 to directory
	ClassForward               // directory-to-sharer forwards and invalidations
	ClassResponse              // data, ACK, NACK, UNBLOCK
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassForward:
		return "forward"
	case ClassResponse:
		return "response"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// The mesh timing of the paper's Table II: 4-stage routers and
// single-cycle links.
const (
	RouterStages sim.Time = 4 // pipeline depth of one router
	LinkCycles   sim.Time = 1 // cycles for one flit to cross one link
	LocalCycles  sim.Time = 1 // latency of a node-local (src == dst) message

	// MinRemoteLatency is the minimum end-to-end latency of any remote
	// (src != dst) message: one hop, one flit, no queueing — source router
	// pipeline, one link crossing, destination router pipeline. Queueing
	// and extra flits or hops only add to it, so it is a sound
	// conservative lookahead bound for windowed parallel simulation.
	MinRemoteLatency = 2*RouterStages + LinkCycles
)

// Config is the mesh's shape. DefaultConfig is the paper's Table II.
type Config struct {
	Width, Height int
}

// DefaultConfig is the paper's 16-node 4x4 mesh.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4}
}

// Handler receives a delivered message payload at a node.
type Handler func(payload any)

// Stats aggregates network accounting for one run.
type Stats struct {
	Messages        [numClasses]uint64 // messages sent per class
	Flits           [numClasses]uint64 // flits injected per class
	RouterTraversal [numClasses]uint64 // flits x routers visited per class
	TotalLatency    uint64             // sum of end-to-end latencies (cycles)
	QueueingDelay   uint64             // portion of latency due to link contention
}

// TotalTraversals returns the Fig. 11 metric: router traversals summed over
// every flit of every class.
func (s Stats) TotalTraversals() uint64 {
	var t uint64
	for _, v := range s.RouterTraversal {
		t += v
	}
	return t
}

// Accumulate adds o's counters into s — merging one shard's local-traffic
// statistics into the global mesh's routed-traffic statistics when a
// sharded run folds its Result.
func (s *Stats) Accumulate(o Stats) {
	for c := range s.Messages {
		s.Messages[c] += o.Messages[c]
		s.Flits[c] += o.Flits[c]
		s.RouterTraversal[c] += o.RouterTraversal[c]
	}
	s.TotalLatency += o.TotalLatency
	s.QueueingDelay += o.QueueingDelay
}

// TotalMessages returns messages sent across all classes.
func (s Stats) TotalMessages() uint64 {
	var t uint64
	for _, v := range s.Messages {
		t += v
	}
	return t
}

// Mesh is the interconnect instance. It is wired to a sim.Engine at
// construction; Send computes the delivery time of a message and schedules
// its arrival. Delivery is closure-free: every arrival is one event on one
// sim.Handler, carrying the destination node in the event's payload word,
// so a Send performs no heap allocation. That handler is the one Receive
// registered or, by default, the mesh itself, which calls the destination's
// Attach func.
type Mesh struct {
	cfg      Config
	eng      *sim.Engine
	arrive   sim.Handler // set by Receive; nil means the mesh's own OnEvent
	handlers []Handler
	// linkFree[l] is the earliest cycle at which directed link l can begin
	// serializing another message's flits.
	linkFree []sim.Time
	// paths[pathOff[p]:pathOff[p+1]] is the X-then-Y link list of pair
	// p = src*Nodes()+dst, in traversal order (empty when src == dst): the
	// links Route returns, tabulated once per shape and kept across Reset.
	// About 2 KB at 16 nodes, 58 KB at 64 and 1.6 MB at 256.
	paths   []int16
	pathOff []int32
	stats   Stats

	// avgHops memoizes AverageHops (O(n²) to compute; consulted per
	// machine construction and per AverageLatency call).
	avgHops     float64
	avgHopsDone bool
}

// New returns a mesh attached to eng. It has no handlers yet: Receive, or
// Attach for every node that can receive, must be called before a Send.
func New(cfg Config, eng *sim.Engine) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: non-positive mesh dimensions")
	}
	n := cfg.Width * cfg.Height
	if n*4 > math.MaxInt16+1 {
		panic(fmt.Sprintf("noc: %dx%d mesh has more links than an int16 route table indexes", cfg.Width, cfg.Height))
	}
	m := &Mesh{
		cfg:      cfg,
		eng:      eng,
		handlers: make([]Handler, n),
		// 4 directed links per node is an upper bound (E,W,N,S).
		linkFree: make([]sim.Time, n*4),
	}
	m.buildPaths()
	return m
}

// buildPaths tabulates every pair's Route as int16 link indices.
func (m *Mesh) buildPaths() {
	n := m.Nodes()
	total := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			total += m.Hops(src, dst)
		}
	}
	m.paths = make([]int16, 0, total)
	m.pathOff = make([]int32, 1, n*n+1)
	var route []int
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			route = m.appendRoute(route[:0], src, dst)
			for _, l := range route {
				m.paths = append(m.paths, int16(l))
			}
			m.pathOff = append(m.pathOff, int32(len(m.paths)))
		}
	}
}

// Reset returns the mesh to the state New(cfg, eng) would produce, reusing
// the handler, link and route tables (and the AverageHops memo) when the
// topology is unchanged. Handlers are cleared either way: the machine
// registers its arrival handler again during its own reset, so a stale
// handler can never be invoked.
func (m *Mesh) Reset(cfg Config, eng *sim.Engine) {
	if cfg.Width != m.cfg.Width || cfg.Height != m.cfg.Height {
		*m = *New(cfg, eng)
		return
	}
	m.cfg = cfg
	m.eng = eng
	m.arrive = nil
	clear(m.handlers)
	clear(m.linkFree)
	m.stats = Stats{}
}

// Nodes returns the number of nodes in the mesh.
func (m *Mesh) Nodes() int { return m.cfg.Width * m.cfg.Height }

// Attach registers the receive func for node id. The mesh calls it for
// every arrival at id while no Receive handler is registered.
func (m *Mesh) Attach(id int, h Handler) {
	m.handlers[id] = h
}

// Receive registers h for every arrival at every node, in place of the
// Attach funcs: an arrival of payload at node dst runs
// h.OnEvent(payload, uint64(dst)) directly, one dispatch from the engine.
func (m *Mesh) Receive(h sim.Handler) { m.arrive = h }

// OnEvent implements sim.Handler: deliver an in-flight message (arg) to the
// Attach func of the destination node carried in the payload word.
func (m *Mesh) OnEvent(arg any, word uint64) {
	m.handlers[word](arg)
}

// Stats returns a snapshot of the accumulated network statistics.
func (m *Mesh) Stats() Stats { return m.stats }

func (m *Mesh) xy(id int) (x, y int) { return id % m.cfg.Width, id / m.cfg.Width }

// direction indices for the per-node directed output links.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
)

func (m *Mesh) linkIndex(node, dir int) int { return node*4 + dir }

// Route returns the sequence of (node, outDir) hops a message takes from
// src to dst under X-then-Y dimension-order routing. An empty slice means a
// node-local message. Send walks these lists, tabulated once per shape.
func (m *Mesh) Route(src, dst int) []int { return m.appendRoute(nil, src, dst) }

// appendRoute appends Route(src, dst) to links.
func (m *Mesh) appendRoute(links []int, src, dst int) []int {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	x, y := sx, sy
	for x != dx {
		if x < dx {
			links = append(links, m.linkIndex(y*m.cfg.Width+x, dirEast))
			x++
		} else {
			links = append(links, m.linkIndex(y*m.cfg.Width+x, dirWest))
			x--
		}
	}
	for y != dy {
		if y < dy {
			links = append(links, m.linkIndex(y*m.cfg.Width+x, dirSouth))
			y++
		} else {
			links = append(links, m.linkIndex(y*m.cfg.Width+x, dirNorth))
			y--
		}
	}
	return links
}

// Hops returns the Manhattan distance between src and dst.
func (m *Mesh) Hops(src, dst int) int {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// AverageHops returns the mean Manhattan distance over all ordered pairs of
// distinct nodes. PUNO uses it to derive the average cache-to-cache latency
// for the notification guard band. The O(n²) scan runs once; the result is
// memoized (the topology is fixed at construction).
func (m *Mesh) AverageHops() float64 {
	if m.avgHopsDone {
		return m.avgHops
	}
	n := m.Nodes()
	total, pairs := 0, 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			total += m.Hops(s, d)
			pairs++
		}
	}
	m.avgHops = float64(total) / float64(pairs)
	m.avgHopsDone = true
	return m.avgHops
}

// AverageLatency returns the uncontended end-to-end latency of a f-flit
// message over the average-hop path, in cycles. O(1) after the first call
// thanks to the AverageHops memo.
func (m *Mesh) AverageLatency(flits int) sim.Time {
	h := sim.Time(m.AverageHops() + 0.5)
	// Per hop: router pipeline + link; plus serialization of the tail flits.
	return (h+1)*RouterStages + h*LinkCycles + sim.Time(flits-1)
}

// Send injects a message of the given class and flit count from src to dst
// and schedules its arrival at dst (see Receive and Attach) at its delivery
// time. The delivery time accounts for router pipeline depth, link
// serialization of all flits, and queueing when a link is busy with earlier
// traffic.
//
//puno:hot
func (m *Mesh) Send(src, dst int, class Class, flits int, payload any) {
	if flits <= 0 {
		panic("noc: message with no flits")
	}
	h := m.arrive
	if h == nil {
		if m.handlers[dst] == nil {
			panic(fmt.Sprintf("noc: no handler attached at node %d", dst))
		}
		h = m
	}
	m.stats.Messages[class]++
	m.stats.Flits[class] += uint64(flits)

	now := m.eng.Now()
	t := now + LocalCycles
	if src == dst {
		m.stats.TotalLatency += uint64(LocalCycles)
	} else {
		t = m.route(now, src, dst, class, flits)
	}
	m.eng.AtEvent(t, h, payload, uint64(dst))
}

// route walks the precomputed X-then-Y link list from src to dst
// (src != dst), reserving each link for the message's flits and
// accumulating the routed traffic statistics. It returns the head message's
// delivery time. Link reservations mutate shared mesh state, so calls must
// happen in the simulation's serial order.
//
//puno:hot
func (m *Mesh) route(now sim.Time, src, dst int, class Class, flits int) sim.Time {
	p := src*len(m.handlers) + dst
	path := m.paths[m.pathOff[p]:m.pathOff[p+1]]
	// The link serializes all flits of a message; the head flit then reaches
	// the next router and traverses its pipeline.
	serialize := sim.Time(flits) * LinkCycles
	perHop := LinkCycles + RouterStages
	t := now + RouterStages // source router pipeline
	var queueing sim.Time
	for _, l := range path {
		free := &m.linkFree[l]
		depart := max(t, *free)
		queueing += depart - t
		*free = depart + serialize
		t = depart + perHop
	}
	// Tail flit trails the head by (flits-1) cycles at the destination.
	t += sim.Time(flits-1) * LinkCycles

	// Every flit visits every router on the path (hops+1 routers).
	m.stats.RouterTraversal[class] += uint64(flits) * uint64(len(path)+1)
	m.stats.TotalLatency += uint64(t - now)
	m.stats.QueueingDelay += uint64(queueing)
	return t
}

// ReserveRoute performs the accounting half of Send for a remote message
// (src != dst) injected at cycle `now`, without scheduling a delivery: link
// reservations, per-class message/flit counts, and latency statistics. It
// returns the delivery time for the caller to schedule itself. The sharded
// coordinator replays staged cross-shard sends through it in serial order
// so link contention resolves exactly as in a serial run.
//
//puno:hot
func (m *Mesh) ReserveRoute(now sim.Time, src, dst int, class Class, flits int) sim.Time {
	if flits <= 0 {
		panic("noc: message with no flits")
	}
	m.stats.Messages[class]++
	m.stats.Flits[class] += uint64(flits)
	return m.route(now, src, dst, class, flits)
}
