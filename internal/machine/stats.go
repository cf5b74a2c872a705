package machine

import (
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// GETXOutcome classifies one transactional GETX request by what it did to
// the system — the taxonomy behind Fig. 2.
type GETXOutcome int

// Outcomes of a transactional GETX.
const (
	// OutcomeClean: granted without disturbing any transaction.
	OutcomeClean GETXOutcome = iota
	// OutcomeResolvedAborts: granted; the sharers it aborted were
	// necessary (the request succeeded, so the conflicts were real).
	OutcomeResolvedAborts
	// OutcomeNackOnly: rejected by a higher-priority transaction without
	// aborting anyone (the unicast ideal).
	OutcomeNackOnly
	// OutcomeFalseAbort: rejected AND it aborted one or more
	// lower-priority sharers on the way — false aborting (Sec. II-C).
	OutcomeFalseAbort
	numOutcomes
)

// String implements fmt.Stringer.
func (o GETXOutcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeResolvedAborts:
		return "resolved-aborts"
	case OutcomeNackOnly:
		return "nack-only"
	case OutcomeFalseAbort:
		return "false-abort"
	default:
		return "outcome(?)"
	}
}

// AbortCause attributes a transaction abort to its trigger.
type AbortCause int

// Abort causes.
const (
	CauseTxGETX   AbortCause = iota // conflicting transactional write request
	CauseTxGETS                     // conflicting transactional read request
	CauseOverflow                   // transactional set overflowed the L1
	numCauses
)

// Result is everything measured in one run. All cycle quantities are in
// core clock cycles.
type Result struct {
	Workload string
	Scheme   Scheme
	Cycles   sim.Time // execution time: cycle the last thread finished

	Commits uint64
	Aborts  uint64 // total transaction aborts (Fig. 10 numerator)

	AbortsByCause [numCauses]uint64

	// Transactional GETX classification (Figs. 2 and 3). TxGETXIssued
	// counts every GETX issued, retries included (every GETX is issued
	// inside a running attempt, so every one is transactional);
	// TxGETXAccesses counts logical write accesses (the Fig. 2
	// denominator — one classification per access, accumulated across its
	// retries).
	TxGETXIssued   uint64
	TxGETXAccesses uint64
	GETXOutcomes   [numOutcomes]uint64
	// FalseAbortHist[k] counts false-aborting requests that falsely aborted
	// exactly k transactions (k=0 is unused padding). A dense slice indexed
	// by victim count: emission order is index order by construction, and
	// the abort path increments without hashing. Always non-nil once reset
	// has run, so fresh and arena-reused results compare equal.
	FalseAbortHist []uint64

	// Transaction execution efficiency (Fig. 14).
	GoodCycles      uint64 // cycles inside attempts that committed
	DiscardedCycles uint64 // cycles inside attempts that aborted

	// Interconnect (Fig. 11).
	Net noc.Stats

	// Directory blocking (Fig. 12) and other directory-side counters.
	DirTxGETXBusy     uint64
	DirTxGETXServices uint64 // TxGETX requests the directories accepted
	DirBusyAll        uint64
	DirBusyNacks      uint64
	DirUnicasts       uint64
	DirMulticastFwds  uint64
	Mispredictions    uint64

	// Requester-side behaviour.
	Nacks            uint64 // NACKed request attempts
	Retries          uint64 // request re-issues after NACK
	BackoffCycles    uint64 // cycles spent in polling backoff
	RestartWaitCycle uint64 // cycles spent in post-abort restart backoff
	NotifiedBackoffs uint64 // retries whose delay came from a T_est notification

	PerNodeCommits []uint64
	PerNodeAborts  []uint64
}

// reset returns r to the state a fresh Result for (workload, scheme,
// nodes) holds, reusing the capacity of the histogram and the per-node
// slices — the arena-reuse path of Machine.Reset.
func (r *Result) reset(workload string, scheme Scheme, nodes int) {
	hist := r.FalseAbortHist
	if hist == nil {
		hist = make([]uint64, 0, 8)
	} else {
		hist = hist[:0]
	}
	*r = Result{
		Workload:       workload,
		Scheme:         scheme,
		FalseAbortHist: hist,
		PerNodeCommits: mem.Extend(r.PerNodeCommits[:0], nodes),
		PerNodeAborts:  mem.Extend(r.PerNodeAborts[:0], nodes),
	}
}

// Clone returns a deep copy of r. Machine.Run returns a pointer into the
// machine, and the sweep harness reuses one machine arena per worker —
// results that must outlive the arena's next Reset are cloned first.
func (r *Result) Clone() *Result {
	c := *r
	c.FalseAbortHist = append(make([]uint64, 0, len(r.FalseAbortHist)), r.FalseAbortHist...)
	c.PerNodeCommits = append([]uint64(nil), r.PerNodeCommits...)
	c.PerNodeAborts = append([]uint64(nil), r.PerNodeAborts...)
	return &c
}

// AbortRate returns aborts / (aborts + commits), the Table I metric.
func (r *Result) AbortRate() float64 {
	total := r.Aborts + r.Commits
	if total == 0 {
		return 0
	}
	return float64(r.Aborts) / float64(total)
}

// FalseAbortFraction returns the fraction of transactional GETX requests
// that incurred false aborting (Fig. 2).
func (r *Result) FalseAbortFraction() float64 {
	if r.TxGETXAccesses == 0 {
		return 0
	}
	return float64(r.GETXOutcomes[OutcomeFalseAbort]) / float64(r.TxGETXAccesses)
}

// GDRatio returns good / discarded transactional cycles (Fig. 14). When
// nothing was discarded the ratio is reported against one cycle to stay
// finite.
func (r *Result) GDRatio() float64 {
	d := r.DiscardedCycles
	if d == 0 {
		d = 1
	}
	return float64(r.GoodCycles) / float64(d)
}

// DirBlockingPerTxGETX returns the average cycles a directory entry stayed
// blocked per transactional GETX service — the Fig. 12 metric ("averaging
// the number of cycles during which directory entries stay in a blocking
// transient state when servicing transactional GETX").
func (r *Result) DirBlockingPerTxGETX() float64 {
	if r.DirTxGETXServices == 0 {
		return 0
	}
	return float64(r.DirTxGETXBusy) / float64(r.DirTxGETXServices)
}

// UnnecessaryAborts returns the total transactions aborted by requests that
// were ultimately NACKed (the integral of the Fig. 3 histogram).
func (r *Result) UnnecessaryAborts() uint64 {
	var n uint64
	for k, c := range r.FalseAbortHist {
		n += uint64(k) * c
	}
	return n
}

// bumpFalseAbort counts one false-aborting request with the given number of
// victims, growing the histogram as needed (appended zeros, so retained
// capacity never resurrects stale counts).
func (r *Result) bumpFalseAbort(victims int) {
	for len(r.FalseAbortHist) <= victims {
		r.FalseAbortHist = append(r.FalseAbortHist, 0)
	}
	r.FalseAbortHist[victims]++
}
