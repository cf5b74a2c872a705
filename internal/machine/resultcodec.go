package machine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
	"repro/internal/wire"
)

// punores/2 is the deterministic binary round-trip encoding of a Result —
// the artifact format of the content-addressed result cache (internal/
// serve). Fixed-size arrays carry explicit length prefixes, so a cause,
// outcome or class added to the model is a detected format change, not a
// silent misparse.
//
// Body layout of the frame (DESIGN.md "Binary formats" has the frame and
// the count rule; everything is a uvarint unless noted):
//
//	string  workload
//	        scheme                           (< numSchemes)
//	        cycles, commits, aborts
//	count C, C × aborts by cause             (C must equal numCauses)
//	        txGETXIssued, txGETXAccesses
//	count O, O × GETX outcome                (O must equal numOutcomes)
//	count H, H × false-abort histogram bucket
//	        goodCycles, discardedCycles
//	count K, K × {messages, flits, traversals}   (K must equal the class count)
//	        netTotalLatency, netQueueingDelay
//	        7 directory counters, 5 requester counters
//	count N, N × perNodeCommits, N × perNodeAborts
//
// The encoding is canonical: one Result has exactly one byte rendering, so
// byte equality of encodings is value equality of Results — the property
// the serve smoke test leans on when it compares a cache-served artifact
// against a direct simulation run.
const resMagic = "punores/2"

// EncodeResult renders r in the punores/2 binary format.
func EncodeResult(r *Result) ([]byte, error) { return AppendResult(nil, r) }

// AppendResult appends the punores/2 encoding of r (magic through
// checksum) to dst and returns the extended slice.
func AppendResult(dst []byte, r *Result) ([]byte, error) {
	if int(r.Scheme) < 0 || r.Scheme >= numSchemes {
		return nil, fmt.Errorf("machine: result has invalid scheme %d", int(r.Scheme))
	}
	if len(r.PerNodeCommits) != len(r.PerNodeAborts) {
		return nil, fmt.Errorf("machine: result per-node slices disagree (%d commits, %d aborts)",
			len(r.PerNodeCommits), len(r.PerNodeAborts))
	}
	b := append(dst, resMagic...)
	b = wire.AppendString(b, r.Workload)
	b = binary.AppendUvarint(b, uint64(r.Scheme))
	b = binary.AppendUvarint(b, uint64(r.Cycles))
	b = binary.AppendUvarint(b, r.Commits)
	b = binary.AppendUvarint(b, r.Aborts)
	b = binary.AppendUvarint(b, uint64(len(r.AbortsByCause)))
	for _, c := range r.AbortsByCause {
		b = binary.AppendUvarint(b, c)
	}
	b = binary.AppendUvarint(b, r.TxGETXIssued)
	b = binary.AppendUvarint(b, r.TxGETXAccesses)
	b = binary.AppendUvarint(b, uint64(len(r.GETXOutcomes)))
	for _, c := range r.GETXOutcomes {
		b = binary.AppendUvarint(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(r.FalseAbortHist)))
	for _, c := range r.FalseAbortHist {
		b = binary.AppendUvarint(b, c)
	}
	b = binary.AppendUvarint(b, r.GoodCycles)
	b = binary.AppendUvarint(b, r.DiscardedCycles)
	b = binary.AppendUvarint(b, uint64(len(r.Net.Messages)))
	for c := range r.Net.Messages {
		b = binary.AppendUvarint(b, r.Net.Messages[c])
		b = binary.AppendUvarint(b, r.Net.Flits[c])
		b = binary.AppendUvarint(b, r.Net.RouterTraversal[c])
	}
	b = binary.AppendUvarint(b, r.Net.TotalLatency)
	b = binary.AppendUvarint(b, r.Net.QueueingDelay)
	b = binary.AppendUvarint(b, r.DirTxGETXBusy)
	b = binary.AppendUvarint(b, r.DirTxGETXServices)
	b = binary.AppendUvarint(b, r.DirBusyAll)
	b = binary.AppendUvarint(b, r.DirBusyNacks)
	b = binary.AppendUvarint(b, r.DirUnicasts)
	b = binary.AppendUvarint(b, r.DirMulticastFwds)
	b = binary.AppendUvarint(b, r.Mispredictions)
	b = binary.AppendUvarint(b, r.Nacks)
	b = binary.AppendUvarint(b, r.Retries)
	b = binary.AppendUvarint(b, r.BackoffCycles)
	b = binary.AppendUvarint(b, r.RestartWaitCycle)
	b = binary.AppendUvarint(b, r.NotifiedBackoffs)
	b = binary.AppendUvarint(b, uint64(len(r.PerNodeCommits)))
	for _, c := range r.PerNodeCommits {
		b = binary.AppendUvarint(b, c)
	}
	for _, c := range r.PerNodeAborts {
		b = binary.AppendUvarint(b, c)
	}
	return wire.Seal(b, len(dst)), nil
}

// DecodeResult decodes one complete punores/2 artifact. The trailing
// checksum is verified before decoding, so truncated and corrupted
// artifacts are rejected rather than yielding a plausible partial Result.
func DecodeResult(raw []byte) (*Result, error) {
	d, err := wire.Open(resMagic, "machine: result artifact", raw)
	if err != nil {
		return nil, err
	}
	r := &Result{}
	r.Workload = d.String("workload")
	scheme := d.Uvarint("scheme")
	r.Cycles = sim.Time(d.Uvarint("cycles"))
	r.Commits = d.Uvarint("commits")
	r.Aborts = d.Uvarint("aborts")
	if err := fixedCount(&d, "abort cause count", 1, len(r.AbortsByCause)); err != nil {
		return nil, err
	}
	for i := range r.AbortsByCause {
		r.AbortsByCause[i] = d.Uvarint("cause")
	}
	r.TxGETXIssued = d.Uvarint("txGETXIssued")
	r.TxGETXAccesses = d.Uvarint("txGETXAccesses")
	if err := fixedCount(&d, "GETX outcome count", 1, len(r.GETXOutcomes)); err != nil {
		return nil, err
	}
	for i := range r.GETXOutcomes {
		r.GETXOutcomes[i] = d.Uvarint("outcome")
	}
	r.FalseAbortHist = uvarints(&d, "hist bucket", d.Count("hist length", 1))
	r.GoodCycles = d.Uvarint("goodCycles")
	r.DiscardedCycles = d.Uvarint("discardedCycles")
	if err := fixedCount(&d, "network class count", 3, len(r.Net.Messages)); err != nil {
		return nil, err
	}
	for c := range r.Net.Messages {
		r.Net.Messages[c] = d.Uvarint("net messages")
		r.Net.Flits[c] = d.Uvarint("net flits")
		r.Net.RouterTraversal[c] = d.Uvarint("net traversals")
	}
	r.Net.TotalLatency = d.Uvarint("net latency")
	r.Net.QueueingDelay = d.Uvarint("net queueing")
	r.DirTxGETXBusy = d.Uvarint("dirTxGETXBusy")
	r.DirTxGETXServices = d.Uvarint("dirTxGETXServices")
	r.DirBusyAll = d.Uvarint("dirBusyAll")
	r.DirBusyNacks = d.Uvarint("dirBusyNacks")
	r.DirUnicasts = d.Uvarint("dirUnicasts")
	r.DirMulticastFwds = d.Uvarint("dirMulticastFwds")
	r.Mispredictions = d.Uvarint("mispredictions")
	r.Nacks = d.Uvarint("nacks")
	r.Retries = d.Uvarint("retries")
	r.BackoffCycles = d.Uvarint("backoffCycles")
	r.RestartWaitCycle = d.Uvarint("restartWaitCycle")
	r.NotifiedBackoffs = d.Uvarint("notifiedBackoffs")
	if n := d.Count("node count", 2); n > 0 {
		r.PerNodeCommits = uvarints(&d, "per-node commits", n)
		r.PerNodeAborts = uvarints(&d, "per-node aborts", n)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	if scheme >= uint64(numSchemes) {
		return nil, fmt.Errorf("machine: result encodes unknown scheme %d", scheme)
	}
	r.Scheme = Scheme(scheme)
	return r, nil
}

// fixedCount reads the length prefix of an array whose size this build
// fixes; any other length is format drift.
func fixedCount(d *wire.Cursor, field string, minItemBytes, want int) error {
	if n := d.Count(field, minItemBytes); d.Err() == nil && n != want {
		return fmt.Errorf("machine: result encodes %s %d, this build has %d (format drift)", field, n, want)
	}
	return nil
}

// uvarints reads n uvarints, stopping at the cursor's first error.
func uvarints(d *wire.Cursor, field string, n int) []uint64 {
	vs := make([]uint64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		vs[i] = d.Uvarint(field)
	}
	return vs
}
