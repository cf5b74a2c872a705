// Package puno is a library-level reproduction of "Mitigating the Mismatch
// between the Coherence Protocol and Conflict Detection in Hardware
// Transactional Memory" (Zhao, Chen, Draper — IPDPS 2014).
//
// It bundles a deterministic cycle-level chip-multiprocessor model — MESI
// directory coherence over a 4x4 mesh, a log-based eager HTM, and four
// contention-management schemes (Baseline, randomized Backoff, RMW-Pred,
// and the paper's PUNO: predictive unicast + notification) — together with
// synthetic workloads calibrated to the eight STAMP benchmarks and
// experiment drivers that regenerate every table and figure in the paper's
// evaluation.
//
// Quick start:
//
//	res, err := puno.Run(puno.DefaultConfig(), puno.MustWorkload("intruder"))
//	fmt.Println(res.Aborts, res.AbortRate())
//
// Compare schemes on one workload:
//
//	for _, s := range puno.Schemes() {
//		cfg := puno.DefaultConfig()
//		cfg.Scheme = s
//		res, _ := puno.Run(cfg, puno.MustWorkload("labyrinth"))
//		fmt.Printf("%v: %d aborts\n", s, res.Aborts)
//	}
//
// Custom workloads implement the Workload interface (or use
// stamp-style Profiles); see examples/ for runnable programs.
package puno

import (
	"io"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/trace"
)

// Re-exported model types. The aliases give library users one import path
// while the implementation stays modular internally.
type (
	// Config describes a simulated machine (Table II parameters plus
	// scheme selection and experiment knobs).
	Config = machine.Config
	// Scheme selects the contention-management configuration.
	Scheme = machine.Scheme
	// Result carries every measurement a run produces.
	Result = machine.Result
	// Workload supplies one transactional program per node.
	Workload = machine.Workload
	// Program yields the transaction stream of one hardware thread.
	Program = machine.Program
	// ProgramFunc adapts a function to the Program interface.
	ProgramFunc = machine.ProgramFunc
	// TxInstance is one dynamic transaction: static id + operations.
	TxInstance = machine.TxInstance
	// Op is one transactional operation (read, write, increment, compute).
	Op = machine.Op
	// OpKind discriminates Op variants.
	OpKind = machine.OpKind
	// Machine is a fully wired simulator instance.
	Machine = machine.Machine
	// GETXOutcome classifies transactional write requests (Fig. 2).
	GETXOutcome = machine.GETXOutcome
	// Profile is a parameterized synthetic STAMP-style workload.
	Profile = stamp.Profile
	// Class is one static-transaction recipe inside a Profile.
	Class = stamp.Class
	// Time is a simulation timestamp in clock cycles.
	Time = sim.Time
	// RNG is the deterministic random source handed to Programs.
	RNG = sim.RNG
	// Addr is a simulated physical (word-aligned) address.
	Addr = mem.Addr
	// Line is a cache-line-aligned address.
	Line = mem.Line
)

// LineBytes is the cache-line size of the simulated machine (64 bytes).
const LineBytes = mem.LineBytes

// LineAddr returns the line-aligned address of the i'th cache line above
// base — a convenience for laying out shared structures one object per
// line, which is how the workloads avoid false sharing.
func LineAddr(base uint64, i int) Addr {
	return Addr(base + uint64(i)*mem.LineBytes)
}

// Scheme values.
const (
	SchemeBaseline    = machine.SchemeBaseline
	SchemeBackoff     = machine.SchemeBackoff
	SchemeRMWPred     = machine.SchemeRMWPred
	SchemePUNO        = machine.SchemePUNO
	SchemeUnicastOnly = machine.SchemeUnicastOnly
	SchemeNotifyOnly  = machine.SchemeNotifyOnly
	SchemeATS         = machine.SchemeATS
	SchemePUNOPush    = machine.SchemePUNOPush
)

// Op kinds.
const (
	OpRead    = machine.OpRead
	OpWrite   = machine.OpWrite
	OpIncr    = machine.OpIncr
	OpCompute = machine.OpCompute
)

// GETX outcomes (Fig. 2 taxonomy).
const (
	OutcomeClean          = machine.OutcomeClean
	OutcomeResolvedAborts = machine.OutcomeResolvedAborts
	OutcomeNackOnly       = machine.OutcomeNackOnly
	OutcomeFalseAbort     = machine.OutcomeFalseAbort
)

// DefaultConfig returns the paper's Table II system: 16 nodes on a 4x4
// mesh, 32KB/4-way L1s, 20-cycle L2, 200-cycle memory, MESI directory
// protocol, baseline contention management.
func DefaultConfig() Config { return machine.DefaultConfig() }

// Schemes returns the four configurations compared throughout the paper's
// figures, in presentation order.
func Schemes() []Scheme { return machine.Schemes() }

// AllSchemes returns every configuration in enum order: the paper's four,
// then the ablation variants, ATS and PUNO-Push.
func AllSchemes() []Scheme { return machine.AllSchemes() }

// NewMachine builds a simulator for cfg and wl without running it (for
// callers that want to preload memory or inspect state mid-run).
func NewMachine(cfg Config, wl Workload) (*Machine, error) { return machine.New(cfg, wl) }

// Run builds and runs a machine to completion on the serial engine.
func Run(cfg Config, wl Workload) (*Result, error) {
	m, err := machine.New(cfg, wl)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// SchemeByName resolves a case-insensitive scheme name ("Baseline",
// "Backoff", "RMW-Pred", "PUNO", …) to its Scheme value; the error on a
// miss lists the valid names.
func SchemeByName(name string) (Scheme, error) { return machine.SchemeByName(name) }

// EncodeResult renders r in the deterministic punores/3 binary format —
// the artifact the content-addressed result cache (internal/serve) stores.
// Encoding is canonical: byte equality of encodings is value equality of
// Results.
func EncodeResult(r *Result) ([]byte, error) { return machine.EncodeResult(r) }

// DecodeResult decodes a punores/3 artifact, rejecting truncation and
// corruption via the trailing checksum.
func DecodeResult(raw []byte) (*Result, error) { return machine.DecodeResult(raw) }

// Workloads returns the eight STAMP-profile workloads in Table I order.
func Workloads() []*Profile { return stamp.All() }

// HighContentionWorkloads returns the paper's high-contention subset
// (bayes, intruder, labyrinth, yada).
func HighContentionWorkloads() []*Profile { return stamp.HighContention() }

// WorkloadByName returns the named STAMP profile.
func WorkloadByName(name string) (*Profile, error) { return stamp.ByName(name) }

// MustWorkload is WorkloadByName that panics on unknown names (for
// examples and tests).
func MustWorkload(name string) *Profile {
	p, err := stamp.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// NewProfile builds a custom synthetic workload from transaction classes;
// see the Class fields for the available knobs.
func NewProfile(name string, high bool, txPerCPU int, classes ...Class) *Profile {
	return stamp.NewProfile(name, high, txPerCPU, 0, classes...)
}

// Event-level observability: every coherence message, transaction
// lifecycle edge, detected conflict, and directory forwarding decision a
// run produces, recorded through Config.EventSink and compared with a
// first-divergence differ. See cmd/punotrace's events/diff subcommands
// for the CLI surface.
type (
	// Event is one recorded simulation event (see the Kind constants in
	// internal/probe for the vocabulary).
	Event = probe.Event
	// EventSink is the hook type Config.EventSink accepts.
	EventSink = probe.Sink
	// EventBuffer is the standard in-memory EventSink, reusable across
	// runs via Reset.
	EventBuffer = probe.Buffer
	// EventTrace is one run's recorded event stream plus the metadata to
	// render and compare it.
	EventTrace = trace.EventTrace
	// Divergence locates the first disagreement between two event streams.
	Divergence = trace.Divergence
)

// CaptureEvents runs wl under cfg with an event sink installed and returns
// the run's measurements together with its full event trace.
func CaptureEvents(cfg Config, wl Workload) (*Result, *EventTrace, error) {
	return trace.CaptureEvents(cfg, wl)
}

// LoadEventTrace reads a binary event trace written by EventTrace.Save.
func LoadEventTrace(r io.Reader) (*EventTrace, error) { return trace.LoadEvents(r) }

// FirstDivergence compares two event traces and returns the first event
// where they disagree (ok=false when the streams are identical).
func FirstDivergence(a, b *EventTrace) (d Divergence, ok bool) {
	return trace.FirstDivergence(a, b)
}

// FormatDivergence renders a divergence as a one-line diagnosis.
func FormatDivergence(a, b *EventTrace, d Divergence) string {
	return trace.FormatDivergence(a, b, d)
}
