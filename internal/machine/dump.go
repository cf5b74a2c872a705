package machine

import (
	"fmt"
	"io"

	"repro/internal/htm"
)

// DumpState writes a human-readable snapshot of every core and directory —
// the first tool to reach for when a run hits MaxCycles.
func (m *Machine) DumpState(w io.Writer) {
	fmt.Fprintf(w, "cycle %d, %d events processed\n", m.eng.Now(), m.eng.Processed())
	for _, n := range m.nodes {
		fmt.Fprintf(w, "node %2d: %-12s tx=%v prio=%d attempts=%d static=%d op=%d/%d commits=%d aborts=%d",
			n.id, stateLabel(n), n.tx.Status, txPrio(n), n.tx.Attempts,
			n.cur.StaticID, n.opIdx, len(n.cur.Ops),
			m.res.PerNodeCommits[n.id], m.res.PerNodeAborts[n.id])
		if n.req != nil {
			fmt.Fprintf(w, " req{line=%v write=%v expected=%d received=%d nack=%v retries=%d refetches=%d}",
				n.req.line, n.req.isWrite, n.req.expected, n.req.received, n.req.sawNack, n.accessRetries, n.accessRefetches)
		}
		fmt.Fprintln(w)
	}
	for i, d := range m.dirs {
		for _, bi := range d.BusyEntries() {
			fmt.Fprintf(w, "dir %2d busy: line=%v req=%d getx=%v since=%d gotWB=%v gotUnblock=%v unicastTo=%d pending=%d\n",
				i, bi.Line, bi.Requester, bi.IsGETX, bi.Since, bi.GotWB, bi.GotUnblock, bi.UnicastTo, bi.Pending)
		}
	}
	// For every line some node is waiting on, show the directory state and
	// every holder's view — the picture needed to diagnose a stuck forward.
	for _, n := range m.nodes {
		if n.req == nil {
			continue
		}
		l := n.req.line
		st, sharers, owner := m.dirs[m.home.Home(l)].State(l)
		fmt.Fprintf(w, "line %v (req by %d): dir=%v sharers=%v owner=%d holders:", l, n.id, st, sharers, owner)
		for _, h := range m.nodes {
			if e := h.l1.Lookup(l); e != nil {
				fmt.Fprintf(w, " %d:%v(pin=%v,rs=%v,ws=%v)", h.id, e.State, e.Pinned,
					h.tx.InFlight() && h.tx.InReadSet(l), h.tx.InFlight() && h.tx.InWriteSet(l))
			}
			if h.wbWait.has(l) {
				fmt.Fprintf(w, " %d:WB", h.id)
			}
		}
		fmt.Fprintln(w)
	}
}

// stateLabel names where a node is in its program, from the facts that
// decide it: the transaction's status, the outstanding request, the
// backoff flag and the finish cycle.
func stateLabel(n *node) string {
	switch {
	case n.doneAt > 0:
		return "done"
	case n.backingOff:
		return "backoff"
	}
	switch n.tx.Status {
	case htm.StatusRunning:
		if n.req != nil {
			return "waiting"
		}
		return "running"
	case htm.StatusAborting:
		return "aborting"
	case htm.StatusAborted:
		if n.req != nil {
			return "abort-drain" // restarts once the in-flight request settles
		}
		return "restart-wait"
	}
	return "idle"
}

func txPrio(n *node) htm.Priority {
	if n.tx.InFlight() {
		return n.tx.Prio
	}
	return 0
}
