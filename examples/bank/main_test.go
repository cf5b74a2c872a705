package main

import (
	"bytes"
	"strings"
	"testing"

	"repro"
)

// TestBankBalances runs the example under every scheme it covers: each
// must end with balances equal to the tellers' committed deposits.
func TestBankBalances(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(puno.Schemes()) {
		t.Fatalf("%d result lines, want one per scheme (%d):\n%s", len(lines), len(puno.Schemes()), out.String())
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, "balances consistent") {
			t.Errorf("unexpected line: %s", l)
		}
	}
}
