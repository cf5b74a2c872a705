package machine

import (
	"strings"
	"testing"
)

// TestDiagSchemes prints the scheme comparison for the read-mostly workload
// (development diagnostic; always passes).
func TestDiagSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	wl := fig4Workload{txPerCPU: 30, sharedArea: 16, writers: 4}
	type variant struct {
		label string
		cfg   Config
	}
	variants := []variant{
		{"Baseline", smallConfig(SchemeBaseline, 3)},
		{"Backoff", smallConfig(SchemeBackoff, 3)},
		{"PUNO", smallConfig(SchemePUNO, 3)},
		{"PUNO-mult1", func() Config {
			c := smallConfig(SchemePUNO, 3)
			c.ValidityTimeoutMult = 1
			return c
		}()},
		{"PUNO-mult16", func() Config {
			c := smallConfig(SchemePUNO, 3)
			c.ValidityTimeoutMult = 16
			return c
		}()},
		{"PUNO-mult64", func() Config {
			c := smallConfig(SchemePUNO, 3)
			c.ValidityTimeoutMult = 64
			return c
		}()},
		{"PUNO-novalidity", func() Config {
			c := smallConfig(SchemePUNO, 3)
			c.DisableValidity = true
			return c
		}()},
		{"UnicastOnly", smallConfig(SchemeUnicastOnly, 3)},
		{"NotifyOnly", smallConfig(SchemeNotifyOnly, 3)},
	}
	for _, v := range variants {
		s := v.label
		m, res := runWorkload(t, v.cfg, wl)
		var partial, inval, reqOld uint64
		for _, p := range m.preds {
			if p != nil {
				partial += p.PartialKnowledge
				inval += p.FallbackInvalid
				reqOld += p.FallbackReqOlder
			}
		}
		if strings.HasPrefix(s, "PUNO") || s == "UnicastOnly" {
			t.Logf("%-18s   fallbacks: allInvalid=%d reqOlder=%d partial=%d", s, inval, reqOld, partial)
		}
		t.Logf("%-18s cycles=%-8d commits=%-4d aborts=%-5d txgetx=%-5d clean=%-4d resolved=%-4d nackonly=%-4d false=%-4d unicasts=%-5d mispred=%-4d nacks=%-6d retries=%-6d notified=%-5d traffic=%-8d dirbusy=%d",
			s, res.Cycles, res.Commits, res.Aborts, res.TxGETXIssued,
			res.GETXOutcomes[OutcomeClean], res.GETXOutcomes[OutcomeResolvedAborts],
			res.GETXOutcomes[OutcomeNackOnly], res.GETXOutcomes[OutcomeFalseAbort],
			res.DirUnicasts, res.Mispredictions, res.Nacks, res.Retries, res.NotifiedBackoffs,
			res.Net.TotalTraversals(), res.DirTxGETXBusy)
		t.Logf("%-18s   causes: byGETX=%d byGETS=%d ovf=%d unnecessary=%d",
			s, res.AbortsByCause[CauseTxGETX], res.AbortsByCause[CauseTxGETS],
			res.AbortsByCause[CauseOverflow], res.UnnecessaryAborts())
	}
}
