// Package core implements PUNO — Predictive Unicast and Notification — the
// paper's contribution (Sec. III). It has two halves:
//
//   - The directory-side unicast predictor: a per-directory Transaction
//     Priority Buffer (P-Buffer) tracking the latest transaction priority
//     seen from every node, guarded by 2-bit validity counters that decay
//     under an adaptive rollover timeout; and the UD (Unicast Destination)
//     choice naming the line's highest-priority sharer. The hardware keeps
//     the UD as a per-line pointer (Table III prices it); the model
//     recomputes it from the sharers at decision time, which every pointer
//     read would observe anyway. When a transactional GETX arrives and the
//     UD sharer's (valid) priority beats the requester's, the directory
//     forwards the request to that sharer alone instead of multicasting
//     invalidations, so the other sharers' transactions are not falsely
//     aborted.
//
//   - The node-side Transaction Length Buffer (TxLB): per static
//     transaction, a running average of dynamic instance lengths using the
//     paper's recency-weighted formula (prev+dyn)/2. A transaction that
//     NACKs a unicast request attaches its estimated remaining cycles
//     (T_est) so the requester backs off instead of polling.
package core

import (
	"repro/internal/htm"
	"repro/internal/sim"
)

// A floor under the adaptive rollover period. The paper's other fixed
// directory-side timing, the 2-cycle decision path (1 cycle P-Buffer access
// + 1 cycle compare), is the directory's to charge: it adds it to every
// forward it sends to sharers while a predictor is installed.
const (
	minTimeout sim.Time = 64

	// defaultTimeoutMultiplier scales the adaptive rollover period
	// relative to the observed average transaction length. The paper
	// states the period is "determined dynamically based on the average
	// transaction length" without giving the constant; 16x calibrates well
	// across the workload suite (see `experiments -exp validity`) because a
	// priority retained across retries stays correct for several
	// transaction lifetimes under contention.
	defaultTimeoutMultiplier = 16
)

// PredictorConfig sizes the directory-side structures.
type PredictorConfig struct {
	Nodes             int  // P-Buffer entries (one per node)
	DisableValidity   bool // if true, validity counters never decay (ablation)
	TimeoutMultiplier int  // rollover period / average transaction length (0 = 16)
}

type pbufEntry struct {
	prio     htm.Priority
	validity uint8 // 2-bit saturating counter; > 1 means usable
}

// Predictor is the directory-side PUNO state for one directory bank. It
// implements coherence.Predictor.
type Predictor struct {
	cfg     PredictorConfig
	clock   func() sim.Time
	pbuf    []pbufEntry
	avgLen  float64 // EWMA of requester-piggybacked average tx lengths
	nextDec sim.Time
	// confidence is an EWMA of unicast accuracy and benefit an EWMA of how
	// often completed multicasts exhibit false aborting. The paper
	// unicasts when the sharer is "predicted with high confidence to
	// nack" (Sec. III-A); unicast stays enabled while either the
	// predictions are accurate or multicasts demonstrably cause false
	// aborting (a mispredicted unicast costs one NACK round-trip, a false
	// aborting multicast costs several wasted transactions, so low
	// accuracy is still profitable when false aborting is common). probe
	// lets a disabled predictor keep sampling so it can recover.
	confidence float64
	benefit    float64
	probe      uint64

	// Multicast-fallback reasons and partial-knowledge unicasts
	// (diagnostics). The unicast and misprediction counts are the run's
	// Result.DirUnicasts and Result.Mispredictions.
	FallbackInvalid  uint64 // every sharer's priority validity expired
	FallbackReqOlder uint64 // requester beats the best recorded sharer priority
	FallbackLowConf  uint64 // low accuracy and no false-aborting benefit; multicast
	PartialKnowledge uint64 // unicasts issued while some sharer priorities were expired
}

// NewPredictor builds the directory-side state. clock provides the current
// cycle for the rollover timeout.
func NewPredictor(cfg PredictorConfig, clock func() sim.Time) *Predictor {
	p := &Predictor{clock: clock}
	p.Reset(cfg)
	return p
}

// Reset returns the predictor to the state NewPredictor(cfg, clock) produces
// for the clock it was built with, reusing the P-Buffer when the node count
// is unchanged.
func (p *Predictor) Reset(cfg PredictorConfig) {
	if cfg.Nodes <= 0 {
		panic("core: predictor needs at least one node")
	}
	if cfg.TimeoutMultiplier <= 0 {
		cfg.TimeoutMultiplier = defaultTimeoutMultiplier
	}
	pbuf := p.pbuf
	if len(pbuf) != cfg.Nodes {
		pbuf = make([]pbufEntry, cfg.Nodes)
	} else {
		clear(pbuf)
	}
	*p = Predictor{cfg: cfg, clock: p.clock, pbuf: pbuf, confidence: 1}
}

// timeoutPeriod returns the current rollover period: adaptive to the
// average transaction length so that priorities decay at the rate
// transactions actually turn over (Sec. III-B).
func (p *Predictor) timeoutPeriod() sim.Time {
	t := sim.Time(p.avgLen) * sim.Time(p.cfg.TimeoutMultiplier)
	if t < minTimeout {
		return minTimeout
	}
	return t
}

// decay applies any rollover timeouts that have elapsed since the last
// call, decrementing every non-zero validity counter once per timeout. The
// hardware uses a free-running counter; applying the decrements lazily on
// access is behaviourally identical and keeps the simulation event-free.
func (p *Predictor) decay() {
	if p.cfg.DisableValidity {
		return
	}
	now := p.clock()
	if p.nextDec == 0 {
		p.nextDec = now + p.timeoutPeriod()
		return
	}
	for p.nextDec <= now {
		for i := range p.pbuf {
			if p.pbuf[i].validity > 0 {
				p.pbuf[i].validity--
			}
		}
		p.nextDec += p.timeoutPeriod()
	}
}

// ObserveRequest implements coherence.Predictor: refresh the requester's
// P-Buffer entry and fold its average-transaction-length hint into the
// adaptive timeout.
func (p *Predictor) ObserveRequest(node int, prio htm.Priority, avgTxLen sim.Time) {
	p.decay()
	e := &p.pbuf[node]
	e.prio = prio
	// "When a priority is updated, its validity counter is incremented.
	// After updating the priority with 0 validity, the validity counter is
	// incremented twice to allow a longer timeout period."
	if e.validity == 0 {
		e.validity = 2
	} else if e.validity < 3 {
		e.validity++
	}
	if avgTxLen > 0 {
		if p.avgLen == 0 {
			p.avgLen = float64(avgTxLen)
		} else {
			p.avgLen = (p.avgLen + float64(avgTxLen)) / 2
		}
	}
}

// Valid reports whether node's P-Buffer priority is usable for prediction.
func (p *Predictor) Valid(node int) bool {
	return p.pbuf[node].validity > 1
}

// PriorityOf returns the tracked priority of node (tests and debugging).
func (p *Predictor) PriorityOf(node int) (htm.Priority, bool) {
	return p.pbuf[node].prio, p.Valid(node)
}

// PredictUnicast implements coherence.Predictor. The hardware updates the
// UD pointer off the critical path after every directory service
// (Sec. III-B), so by the time a new request is serviced all pending
// updates have completed; we model that by recomputing the pointer over
// the forward targets (the sharers minus the requester) here, then unicast
// only when the chosen sharer's valid recorded priority strictly beats the
// requester's. A stored per-line pointer would be write-only state: every
// write is followed by a recomputation before its next read.
func (p *Predictor) PredictUnicast(sharers []int, reqNode int, reqPrio htm.Priority) (int, bool) {
	p.decay()
	if p.confidence < 0.5 && p.benefit < 0.05 {
		// Predictions are inaccurate AND multicasts are not causing false
		// aborting: unicast cannot pay here. Multicast, but probe
		// occasionally so the estimators can recover.
		p.probe++
		if p.probe%32 != 0 {
			p.FallbackLowConf++
			return 0, false
		}
	}
	best, found := -1, false
	invalids := 0
	for _, s := range sharers {
		if !p.Valid(s) {
			invalids++
			continue
		}
		if !found || htm.Older(p.pbuf[s].prio, s, p.pbuf[best].prio, best) {
			best, found = s, true
		}
	}
	if !found {
		p.FallbackInvalid++
		return 0, false
	}
	if !htm.Older(p.pbuf[best].prio, best, reqPrio, reqNode) {
		p.FallbackReqOlder++
		return 0, false
	}
	if invalids > 0 {
		// Some sharers have unknown (expired) priorities: any of them
		// might be older than the requester, but the prediction can still
		// go to the best-known sharer — a wrong guess is caught by the
		// conservative NACK-on-misprediction rule.
		p.PartialKnowledge++
	}
	return best, true
}

// Misprediction implements coherence.Predictor: the UNBLOCK MP feedback
// carries the mispredicted sharer's current priority (read by the sharer
// when it NACKed), so the stale P-Buffer entry can be refreshed in place;
// a sharer that was not in a transaction invalidates the entry. Without
// the refresh, a directory with several stale-but-valid entries chains
// through them one misprediction at a time, and the paper's 90%+
// prediction accuracy is unreachable for cache-resident workloads whose
// transactions rarely issue coherence requests.
func (p *Predictor) Misprediction(node int, prio htm.Priority) {
	if prio == htm.NoPriority {
		p.pbuf[node].validity = 0
		return
	}
	p.pbuf[node].prio = prio
	if p.pbuf[node].validity < 2 {
		p.pbuf[node].validity = 2
	}
}

// UnicastResolved implements coherence.Predictor: fold one completed
// unicast's outcome into the confidence estimate.
func (p *Predictor) UnicastResolved(correct bool) {
	const w = 0.05
	if correct {
		p.confidence = (1-w)*p.confidence + w
	} else {
		p.confidence = (1 - w) * p.confidence
	}
}

// MulticastResolved implements coherence.Predictor: fold one completed
// multicast transactional GETX outcome into the benefit estimate.
func (p *Predictor) MulticastResolved(falseAbort bool) {
	const w = 0.05
	if falseAbort {
		p.benefit = (1-w)*p.benefit + w
	} else {
		p.benefit = (1 - w) * p.benefit
	}
}

// Confidence returns the current unicast-accuracy estimate.
func (p *Predictor) Confidence() float64 { return p.confidence }

// Benefit returns the current multicast false-aborting estimate.
func (p *Predictor) Benefit() float64 { return p.benefit }
