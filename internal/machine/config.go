package machine

import (
	"repro/internal/cache"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Scheme selects the contention-management configuration of a run
// (Sec. IV-A of the paper plus the ablation variants called out in
// DESIGN.md).
type Scheme int

// Schemes.
const (
	SchemeBaseline    Scheme = iota // multicast + fixed 20-cycle backoff
	SchemeBackoff                   // multicast + randomized linear restart backoff
	SchemeRMWPred                   // multicast + read-modify-write load promotion
	SchemePUNO                      // predictive unicast + notification backoff
	SchemeUnicastOnly               // ablation: predictive unicast, baseline backoff
	SchemeNotifyOnly                // ablation: notification backoff, multicast
	SchemeATS                       // adaptive transaction scheduling (Yoo & Lee; Sec. V related work)
	SchemePUNOPush                  // PUNO + commit wakeup (the paper's future-work speculative action)
	numSchemes
)

// Schemes returns the four configurations the paper's figures compare.
func Schemes() []Scheme {
	return []Scheme{SchemeBaseline, SchemeBackoff, SchemeRMWPred, SchemePUNO}
}

// AllSchemes returns every configuration in enum order: the paper's four,
// then the ablations and extensions.
func AllSchemes() []Scheme {
	all := make([]Scheme, numSchemes)
	for i := range all {
		all[i] = Scheme(i)
	}
	return all
}

// schemeSpec is one row of the scheme table: the parts of contention
// management a scheme turns on. A part left unset keeps the baseline's
// behaviour: multicast forwards, NACKs without T_est, the fixed 20-cycle
// polling and restart backoff, no load promotion, no scheduling.
type schemeSpec struct {
	name          string
	predict       bool     // directories run PUNO's unicast predictor
	notify        bool     // conflict NACKs carry T_est, and requesters sleep on it (cm.NotifiedWait)
	maxWait       sim.Time // cap on one notified wait
	push          bool     // a nacker wakes the requesters it NACKed when its attempt ends
	randomRestart bool     // aborted transactions wait cm.RandomRestart, not the fixed backoff
	rmwPred       bool     // each node's cm.RMWPred promotes predicted read-modify-write loads
	ats           bool     // high-contention threads need the cm.ATSGroup token to begin
}

// schemeTable defines every scheme, indexed by Scheme.
var schemeTable = [numSchemes]schemeSpec{
	SchemeBaseline:    {name: "Baseline"},
	SchemeBackoff:     {name: "Backoff", randomRestart: true},
	SchemeRMWPred:     {name: "RMW-Pred", rmwPred: true},
	SchemePUNO:        {name: "PUNO", predict: true, notify: true, maxWait: 100000},
	SchemeUnicastOnly: {name: "PUNO-unicast-only", predict: true},
	SchemeNotifyOnly:  {name: "PUNO-notify-only", notify: true, maxWait: 100000},
	SchemeATS:         {name: "ATS", ats: true},
	// With commit wakeups, the estimate is only a fallback bound: cap the
	// notified sleep and rely on the wakeup for promptness.
	SchemePUNOPush: {name: "PUNO-Push", predict: true, notify: true, maxWait: 20000, push: true},
}

// valid reports whether s names a row of the scheme table.
func (s Scheme) valid() bool { return s >= 0 && s < numSchemes }

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if !s.valid() {
		return "Scheme(?)"
	}
	return schemeTable[s].name
}

// The paper's Table II timing, fixed for every run: no experiment varies
// it, so it lives here rather than in Config. The three latencies are
// exported because Table II renders them.
const (
	L1HitLatency sim.Time = 1   // private L1 hit
	L2HitLatency sim.Time = 20  // shared L2 bank access
	MemLatency   sim.Time = 200 // cold-miss fill from the memory controller

	// busyRetryDelay is the wait before re-sending a request that was
	// NACKed by a busy directory entry, plus up to busyRetryJitter.
	busyRetryDelay  sim.Time = 10
	busyRetryJitter sim.Time = 30

	// Controller occupancies: each message handled by a directory/L2 bank
	// (dirOccupancy) or an L1 controller (l1Occupancy) holds that
	// controller for this many cycles; arrivals queue behind it. This is
	// what makes polling and multicast storms cost real time, as they do
	// in a bandwidth-limited memory system.
	dirOccupancy sim.Time = 4
	l1Occupancy  sim.Time = 2
)

// Config describes one simulated machine. DefaultConfig reproduces the
// paper's Table II system; the parts of Table II no run varies are the
// constants above, core.TxLBEntries and htm.DefaultCosts.
type Config struct {
	Nodes int        // must equal Mesh.Width*Mesh.Height
	Mesh  noc.Config // interconnect timing

	L1     cache.Config
	Scheme Scheme

	// SignatureBits, when nonzero, switches conflict detection to
	// Bloom-filter signatures of that size (LogTM-SE ablation).
	SignatureBits int

	// DisableValidity stops the P-Buffer validity counters from decaying
	// (ablation).
	DisableValidity bool
	// ValidityTimeoutMult scales the adaptive validity timeout relative to
	// the average transaction length (0 = package default).
	ValidityTimeoutMult int

	// NotifyGuardOverride, when nonzero, replaces the computed 2x average
	// cache-to-cache latency guard band (ablation).
	NotifyGuardOverride sim.Time

	// MaxCycles aborts the run if the clock passes it (hang protection).
	MaxCycles sim.Time

	Seed uint64

	// Shards is read only by internal/pdes: its coordinator splits the
	// machine into that many bands of mesh rows, one worker goroutine each,
	// with results and event traces bit-identical to the serial run. Every
	// other entry point runs the serial engine whatever Shards holds; the
	// repository benchmark's probe and the determinism tests are the
	// coordinator's only callers.
	Shards int

	// EventSink, when non-nil, receives a probe.Event for every coherence
	// message sent, transaction begin/commit/abort, detected conflict, and
	// directory forwarding decision. The hooks cost one nil check each when
	// unset and never change the simulated trajectory: a run with a sink
	// and a run without one are cycle-identical. The sink is called from
	// the simulation goroutine only.
	EventSink probe.Sink

	// SampleInterval, when nonzero, records a Result.Timeline sample every
	// that many cycles (commit/abort/traffic deltas — the dynamics view).
	SampleInterval sim.Time
}

// DefaultConfig is the paper's 16-node system (Table II): 32KB 4-way L1,
// 1-cycle L1, 20-cycle L2, 200-cycle memory, 4x4 mesh with 4-stage routers,
// 16-entry P-Buffer (implied by one entry per node), 32-entry TxLB.
func DefaultConfig() Config {
	return Config{
		Nodes:     16,
		Mesh:      noc.DefaultConfig(),
		L1:        cache.Config{SizeBytes: 32 * 1024, Ways: 4},
		Scheme:    SchemeBaseline,
		MaxCycles: 2_000_000_000,
		Seed:      1,
	}
}
