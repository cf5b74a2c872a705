package cm

// RMWPred's table size (the configuration in the paper's evaluation) and the
// confidence a tracked load needs before it is promoted.
const (
	rmwCapacity      = 256
	rmwConfidenceMin = 2
)

// RMWPred implements the read-modify-write predictor of Bobba et al.
// ("Performance Pathologies in Hardware Transactional Memory"): a per-node
// table of up to 256 load instructions observed in the load-then-store
// idiom. A predicted load requests exclusive permission up front, avoiding
// the later upgrade conflict — at the cost of converting read-read sharing
// into write-read conflicts in contended workloads.
//
// Each tracked load carries a two-bit saturating confidence counter:
// observing the idiom increments it, a promoted load that committed
// without a following store decrements it, and promotion requires the
// counter to be at least 2. Without the negative feedback, a load site
// that is only occasionally followed by a store (common in irregular code)
// would be promoted forever after one observation. Tracked loads live in a
// flat, insertion-ordered slice with a map used only as an index, so the
// replacement scan never iterates a map and its victim choice is
// order-independent by construction.
type RMWPred struct {
	index   map[loadPC]int // loadPC -> position in entries
	entries []rmwEntry
	seq     uint64
}

// loadPC identifies a static load instruction: the static transaction and
// the operation index within it (the simulator's analogue of a PC).
type loadPC struct {
	staticID int
	opIdx    int
}

type rmwEntry struct {
	pc         loadPC // key, so eviction can fix the index
	confidence uint8  // 2-bit saturating
	seq        uint64
}

// NewRMWPred returns an empty predictor.
func NewRMWPred() *RMWPred {
	return &RMWPred{index: make(map[loadPC]int)}
}

// Reset empties the predictor in place, keeping its table storage.
func (r *RMWPred) Reset() {
	clear(r.index)
	r.entries = r.entries[:0]
	r.seq = 0
}

// PromoteLoad reports whether the load at (staticID, opIdx) should request
// exclusive access up front.
func (r *RMWPred) PromoteLoad(staticID, opIdx int) bool {
	i, ok := r.index[loadPC{staticID, opIdx}]
	return ok && r.entries[i].confidence >= rmwConfidenceMin
}

// ObserveRMW trains the predictor: the load at (staticID, opIdx) was
// followed by a store to the same line in the same transaction.
func (r *RMWPred) ObserveRMW(staticID, opIdx int) {
	pc := loadPC{staticID, opIdx}
	r.seq++
	if i, ok := r.index[pc]; ok {
		e := &r.entries[i]
		if e.confidence < 3 {
			e.confidence++
		}
		e.seq = r.seq
		return
	}
	if len(r.entries) >= rmwCapacity {
		// FIFO-ish replacement: drop the stalest entry. seq values are
		// unique (monotonic), so the strict < scan over the flat slice
		// picks one well-defined victim.
		victim := 0
		oldest := ^uint64(0)
		for i := range r.entries {
			if r.entries[i].seq < oldest {
				oldest = r.entries[i].seq
				victim = i
			}
		}
		delete(r.index, r.entries[victim].pc)
		last := len(r.entries) - 1
		if victim != last {
			r.entries[victim] = r.entries[last]
			r.index[r.entries[victim].pc] = victim
		}
		r.entries = r.entries[:last]
	}
	r.index[pc] = len(r.entries)
	r.entries = append(r.entries, rmwEntry{pc: pc, confidence: 2, seq: r.seq})
}

// ObserveNonRMW anti-trains the predictor: a load promoted at (staticID,
// opIdx) committed without the transaction ever storing to that line.
func (r *RMWPred) ObserveNonRMW(staticID, opIdx int) {
	if i, ok := r.index[loadPC{staticID, opIdx}]; ok && r.entries[i].confidence > 0 {
		r.entries[i].confidence--
	}
}

// Len returns the number of tracked entries.
func (r *RMWPred) Len() int { return len(r.entries) }
