// Bank: a custom transactional application built directly on the public
// API, demonstrating (a) how to write a Workload without the stamp
// generators and (b) that the simulated HTM really is serializable — the
// final account balances must equal exactly the number of committed
// deposits, under each of the paper's four contention-management schemes.
//
// Twelve teller threads deposit into a small set of shared accounts
// (read-modify-write transactions); four auditor threads repeatedly read
// every account in one transaction (a consistent snapshot). The tellers'
// increments conflict with the auditors' read sets — the same structure
// that causes false aborting in the paper.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro"
)

const (
	accounts     = 24
	auditors     = 2 // nodes 0..auditors-1 audit; the rest are tellers
	depositsEach = 25
	auditsEach   = 10
	accountBase  = 0x1000 // line-aligned; one account per cache line
)

func accountAddr(i int) puno.Addr { return puno.LineAddr(accountBase, i) }

// bankWorkload implements puno.Workload. deposits is the tellers' own
// ledger: deposits[i] counts the committed deposits into account i.
type bankWorkload struct{ deposits *[accounts]uint64 }

func (bankWorkload) Name() string         { return "bank" }
func (bankWorkload) HighContention() bool { return true }

func (w bankWorkload) Program(node int, _ *puno.RNG) puno.Program {
	if node < auditors {
		return auditor(auditsEach)
	}
	return teller(depositsEach, w.deposits)
}

// teller deposits into two random accounts per transaction. The machine
// asks a program for its next transaction only after the current one
// commits, so each call first enters the previous deposit in the ledger.
func teller(txs int, ledger *[accounts]uint64) puno.Program {
	n := 0
	var a, b int
	return puno.ProgramFunc(func(rng *puno.RNG) (puno.TxInstance, bool) {
		if n > 0 {
			ledger[a]++
			ledger[b]++
		}
		if n >= txs {
			return puno.TxInstance{}, false
		}
		n++
		a = rng.Intn(accounts)
		b = rng.Intn(accounts)
		return puno.TxInstance{
			StaticID: 1,
			Ops: []puno.Op{
				{Kind: puno.OpIncr, Addr: accountAddr(a)},
				{Kind: puno.OpIncr, Addr: accountAddr(b)},
				{Kind: puno.OpCompute, Cycles: 40},
			},
			ThinkCycles: 400,
		}, true
	})
}

// auditor reads every account in one transaction (a consistent snapshot).
func auditor(txs int) puno.Program {
	n := 0
	return puno.ProgramFunc(func(*puno.RNG) (puno.TxInstance, bool) {
		if n >= txs {
			return puno.TxInstance{}, false
		}
		n++
		ops := make([]puno.Op, 0, accounts+1)
		for i := 0; i < accounts; i++ {
			ops = append(ops, puno.Op{Kind: puno.OpRead, Addr: accountAddr(i)})
		}
		ops = append(ops, puno.Op{Kind: puno.OpCompute, Cycles: 100})
		return puno.TxInstance{StaticID: 2, Ops: ops, ThinkCycles: 400}, true
	})
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run simulates the bank under each of the paper's schemes, writes one
// line per scheme to w, and returns an error on the first scheme whose
// final balances differ from the committed deposits.
func run(w io.Writer) error {
	for _, scheme := range puno.Schemes() {
		cfg := puno.DefaultConfig()
		cfg.Scheme = scheme
		cfg.Seed = 7

		wl := bankWorkload{deposits: new([accounts]uint64)}
		m, err := puno.NewMachine(cfg, wl)
		if err != nil {
			return err
		}
		res, err := m.Run()
		if err != nil {
			return err
		}

		// Verify serializability: every committed deposit must be visible
		// exactly once in the final memory image.
		m.DrainCaches()
		var wantTotal, gotTotal uint64
		ok := true
		for i, want := range wl.deposits {
			got := m.Backing().LoadWord(accountAddr(i))
			wantTotal += want
			gotTotal += got
			if got != want {
				ok = false
			}
		}
		status := "balances consistent"
		if !ok {
			status = "BALANCE MISMATCH (serializability bug!)"
		}
		fmt.Fprintf(w, "%-10v cycles=%-8d commits=%-4d aborts=%-5d deposits=%d balance-sum=%d  %s\n",
			scheme, res.Cycles, res.Commits, res.Aborts, wantTotal, gotTotal, status)
		if !ok {
			return fmt.Errorf("%v: balances differ from the committed deposits", scheme)
		}
	}
	return nil
}
