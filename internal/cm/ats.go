package cm

// ATS parameters: the EWMA weight of the newest attempt outcome, and the
// contention intensity at and above which a thread serializes (Yoo & Lee
// use 0.3/0.5 regions; these calibrate similarly here).
const (
	atsAlpha     float64 = 0.3
	atsThreshold float64 = 0.5
)

// ATSGroup implements Adaptive Transaction Scheduling (Yoo & Lee), one of
// the proactive contention-management schemes the paper positions PUNO as
// complementary to (Sec. V). Each thread tracks its contention intensity
// (an EWMA over attempt outcomes: 1 for an abort, 0 for a commit); when
// the intensity reaches the threshold, the thread's next attempt must first
// acquire a machine-wide serialization token, so highly conflicting
// transactions run one at a time while low-contention threads proceed
// freely.
//
// One ATSGroup serves all nodes of a machine. Nodes are named by id: Admit
// either lets a node begin or queues it, and End hands the token to the
// node the caller must then begin. The queue is a ring of one slot per
// node (a node waits at most once at a time, and the holder never waits),
// so nothing allocates after Reset.
type ATSGroup struct {
	intensity []float64
	holder    int   // node holding the token; -1 when it is free
	queue     []int // ring of nodes waiting for the token, oldest at head
	head      int
	waiting   int

	Serialized uint64 // attempts that had to take the token
}

// Reset prepares g for a machine of n nodes: every intensity zero, the
// token free, nobody waiting. It reuses g's arrays when they are big
// enough, so the zero ATSGroup is ready after its first Reset.
func (g *ATSGroup) Reset(n int) {
	if cap(g.intensity) < n {
		g.intensity = make([]float64, n)
		g.queue = make([]int, n)
	}
	g.intensity = g.intensity[:n]
	clear(g.intensity)
	g.queue = g.queue[:n]
	g.holder, g.head, g.waiting = -1, 0, 0
	g.Serialized = 0
}

// Admit is called before every attempt of node. It reports whether the
// attempt may begin now: always for a low-intensity thread, and for a
// high-intensity one when it can take the free token. Otherwise node is
// queued, and a later End returns it.
func (g *ATSGroup) Admit(node int) bool {
	if g.intensity[node] < atsThreshold {
		return true
	}
	g.Serialized++
	if g.holder < 0 {
		g.holder = node
		return true
	}
	g.queue[(g.head+g.waiting)%len(g.queue)] = node
	g.waiting++
	return false
}

// End is called when node's attempt commits (aborted false) or finishes
// aborting. It folds the outcome into node's intensity and, if node held
// the token, passes it to the oldest waiter: End returns that waiter, whose
// attempt the caller begins now, or -1 when no node is released.
func (g *ATSGroup) End(node int, aborted bool) int {
	x := 0.0
	if aborted {
		x = 1.0
	}
	g.intensity[node] = atsAlpha*x + (1-atsAlpha)*g.intensity[node]
	if g.holder != node {
		return -1
	}
	if g.waiting == 0 {
		g.holder = -1
		return -1
	}
	g.holder = g.queue[g.head]
	g.head = (g.head + 1) % len(g.queue)
	g.waiting--
	return g.holder
}
