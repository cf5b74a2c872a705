// Command punosim runs one STAMP-profile workload on the simulated CMP
// under a chosen contention-management scheme and prints the measurements.
//
// Usage:
//
//	punosim -workload labyrinth -scheme puno [-seed 1] [-txper 0] [-maxcycles N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/coherence"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// schemeHelp is the -scheme usage string: every scheme name, lower-cased.
func schemeHelp() string {
	var names []string
	for _, s := range machine.AllSchemes() {
		names = append(names, strings.ToLower(s.String()))
	}
	return strings.Join(names, "|")
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("punosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "intruder", "STAMP profile: bayes|intruder|labyrinth|yada|genome|kmeans|ssca2|vacation")
		scheme    = fs.String("scheme", "baseline", schemeHelp())
		seed      = fs.Uint64("seed", 1, "simulation seed")
		txper     = fs.Int("txper", 0, "transactions per node (0 = profile default)")
		maxCycles = fs.Uint64("maxcycles", 0, "cycle budget (0 = default)")
		quiet     = fs.Bool("q", false, "print only the summary line")
		traceStr  = fs.String("trace", "", "print rendered event lines containing this substring (e.g. a line address)")
		vmult     = fs.Int("vmult", 0, "P-Buffer validity timeout multiplier (0 = default)")
		timeline  = fs.Uint64("timeline", 0, "row width in cycles; prints a dynamics table built from the event stream (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := stamp.ByName(*workload)
	if err != nil {
		return err
	}
	if *txper > 0 {
		p = p.WithTxPerCPU(*txper)
	}
	s, err := machine.SchemeByName(*scheme)
	if err != nil {
		return err
	}

	cfg := machine.DefaultConfig()
	cfg.Scheme = s
	cfg.Seed = *seed
	if *maxCycles > 0 {
		cfg.MaxCycles = sim.Time(*maxCycles)
	}
	cfg.ValidityTimeoutMult = *vmult
	var obs *observer
	if *traceStr != "" || *timeline > 0 {
		obs = &observer{w: stdout, substr: *traceStr, width: sim.Time(*timeline), mesh: noc.New(cfg.Mesh, sim.NewEngine())}
		cfg.EventSink = obs
	}

	start := time.Now()
	m, err := machine.New(cfg, p)
	if err != nil {
		return err
	}
	if obs != nil {
		obs.it = m.Backing().Interner()
	}
	res, err := m.Run()
	if err != nil {
		fmt.Fprintf(stderr, "run failed after %v (%d events, cycle %d): %v\n",
			time.Since(start), m.Engine().Processed(), m.Engine().Now(), err)
		m.DumpState(stderr)
		return err
	}
	wall := time.Since(start)

	fmt.Fprintf(stdout, "%s/%s: cycles=%d commits=%d aborts=%d abort%%=%.1f false%%=%.1f traffic=%d wall=%v\n",
		res.Workload, res.Scheme, res.Cycles, res.Commits, res.Aborts,
		100*res.AbortRate(), 100*res.FalseAbortFraction(),
		res.Net.TotalTraversals(), wall.Round(time.Millisecond))
	if *quiet {
		return nil
	}
	fmt.Fprintf(stdout, "  txGETX=%d outcomes: clean=%d resolved=%d nackOnly=%d falseAbort=%d\n",
		res.TxGETXIssued, res.GETXOutcomes[machine.OutcomeClean],
		res.GETXOutcomes[machine.OutcomeResolvedAborts],
		res.GETXOutcomes[machine.OutcomeNackOnly],
		res.GETXOutcomes[machine.OutcomeFalseAbort])
	fmt.Fprintf(stdout, "  abort causes: txGETX=%d txGETS=%d nonTx=%d overflow=%d unnecessary=%d\n",
		res.AbortsByCause[machine.CauseTxGETX], res.AbortsByCause[machine.CauseTxGETS],
		res.AbortsByCause[machine.CauseNonTx], res.AbortsByCause[machine.CauseOverflow],
		res.UnnecessaryAborts())
	fmt.Fprintf(stdout, "  G/D=%.2f dirBusyTxGETX=%d busyNacks=%d unicasts=%d mispred=%d notified=%d retries=%d\n",
		res.GDRatio(), res.DirTxGETXBusy, res.DirBusyNacks,
		res.DirUnicasts, res.Mispredictions, res.NotifiedBackoffs, res.Retries)
	fmt.Fprintf(stdout, "  events=%d spilled=%d (%.0f ev/us)\n", m.Engine().Processed(), m.Engine().Spilled(),
		float64(m.Engine().Processed())/float64(wall.Microseconds()+1))
	if obs != nil && obs.width > 0 {
		fmt.Fprintf(stdout, "  %-10s %8s %8s %10s %7s\n", "cycle", "commits", "aborts", "traffic", "liveTx")
		for _, r := range obs.rows {
			fmt.Fprintf(stdout, "  %-10d %8d %8d %10d %7d\n", r.end, r.commits, r.aborts, r.traffic, r.live)
		}
	}
	var noT, inval, reqOld, lowc, parted uint64
	minConf, maxBen := 1.0, 0.0
	for _, p := range m.Predictors() {
		if p == nil {
			continue
		}
		noT += p.FallbackNoUD
		inval += p.FallbackInvalid
		reqOld += p.FallbackReqOlder
		lowc += p.FallbackLowConf
		parted += p.PartialKnowledge
		if c := p.Confidence(); c < minConf {
			minConf = c
		}
		if b := p.Benefit(); b > maxBen {
			maxBen = b
		}
	}
	if uni := res.DirUnicasts; uni+lowc > 0 {
		fmt.Fprintf(stdout, "  predictor: unicasts=%d fallbacks{noTargets=%d allInvalid=%d reqOlder=%d lowConf=%d} partial=%d minConf=%.2f maxBenefit=%.2f\n",
			uni, noT, inval, reqOld, lowc, parted, minConf, maxBen)
	}
	return nil
}

// observer is the run's one probe.Sink, serving -trace and -timeline.
//
// -trace renders each event as the run emits it, with the renderer
// punotrace diff uses, and prints the lines containing substr; it keeps no
// per-event state, so a long or capped run streams in constant memory.
//
// -timeline buckets the stream into rows of width cycles. Row k covers
// cycles [k*width, (k+1)*width) and is printed under its end cycle; the
// last row is the one holding the run's last event. A row counts the
// KindTxCommit and KindTxAbort events in it and the router traversals of
// its remote sends (flits × (hops+1), the rule Result.Net counts by), and
// ends with the attempts begun and not yet committed or aborted. A commit
// lands in the row where it starts, and an attempt stops being live when
// its rollback starts.
type observer struct {
	w      io.Writer
	substr string        // -trace; "" = off
	it     *mem.Interner // the machine's, set once the machine is built

	width sim.Time  // -timeline; 0 = off
	mesh  *noc.Mesh // topology only: Hops for the traffic column
	rows  []row
	live  int
}

// row is one -timeline interval.
type row struct {
	end                      sim.Time
	commits, aborts, traffic uint64
	live                     int
}

// Emit implements probe.Sink.
func (o *observer) Emit(e probe.Event) {
	if o.substr != "" {
		line := "-"
		if e.Line != 0 {
			line = o.it.LineAt(e.Line).String()
		}
		if ev := trace.FormatEvent(line, e); strings.Contains(ev, o.substr) {
			fmt.Fprintln(o.w, ev)
		}
	}
	if o.width == 0 {
		return
	}
	for k := int(e.Cycle / o.width); len(o.rows) <= k; {
		o.rows = append(o.rows, row{end: sim.Time(len(o.rows)+1) * o.width, live: o.live})
	}
	r := &o.rows[len(o.rows)-1]
	switch e.Kind {
	case probe.KindTxBegin:
		o.live++
	case probe.KindTxCommit:
		r.commits++
		o.live--
	case probe.KindTxAbort:
		r.aborts++
		o.live--
	case probe.KindSend:
		typ, dst, _, _ := probe.UnpackSend(e.Arg)
		if src := int(e.Node); src != dst {
			r.traffic += uint64(coherence.MsgType(typ).Flits() * (o.mesh.Hops(src, dst) + 1))
		}
	}
	r.live = o.live
}
