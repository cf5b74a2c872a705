// Command punovet runs the project's custom static-analysis suite: five
// analyzers (maprange, wallclock, hotalloc, msglife, shardconfine) that
// mechanize the simulator's determinism and zero-allocation invariants,
// plus the compiler-backed escape gate (-escape). Findings print as
// file:line: analyzer: message (or as a JSON array with -json) and make
// the command exit 1; driver errors — bad patterns, a failed go build, a
// type-check error — exit 2, so CI can tell "the tree is dirty" from "the
// tool broke".
//
// Usage:
//
//	punovet [-escape] [-json] [-v] [packages]
//
// With no arguments it analyzes ./... . -escape replaces the AST suite
// with the escape gate: `go build -gcflags=-m=2` runs underneath and any
// compiler-reported heap allocation in a //puno:hot function (minus panic
// paths and exempt amortized-growth callees) is a finding. -v prints a
// per-analyzer timing summary to stderr. No comment silences a finding:
// the only //puno: comments are the markers //puno:hot and //puno:worker
// (any other is itself a finding), and the only exemptions are the
// reviewed rows of internal/lint's exemptions table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/lint"
)

// findingsError distinguishes "the tree has findings" (exit 1) from driver
// failures (exit 2) in main.
type findingsError int

func (n findingsError) Error() string { return fmt.Sprintf("punovet: %d finding(s)", int(n)) }

// jsonFinding is the -json wire form of one finding.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("punovet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	escape := fs.Bool("escape", false, "run the compiler-backed escape gate instead of the AST analyzers")
	verbose := fs.Bool("v", false, "print a per-analyzer timing summary to stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: punovet [-escape] [-json] [-v] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Default() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "  %-12s heap allocations in //puno:hot functions, per go build -gcflags=-m=2 (via -escape)\n", "escapegate")
		fmt.Fprintf(stderr, "\nThe only //puno: comments are //puno:hot and //puno:worker; exemptions are rows in internal/lint's exemptions table.\n")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var findings []lint.Finding
	var timings []lint.Timing
	var err error
	if *escape {
		start := time.Now()
		findings, err = lint.RunEscape(".", patterns)
		timings = []lint.Timing{{Analyzer: "escapegate", Elapsed: time.Since(start)}}
	} else {
		findings, timings, err = lint.RunAnalyzersTimed(".", patterns, lint.Default())
	}
	if err != nil {
		return err
	}
	if *verbose {
		for _, tm := range timings {
			fmt.Fprintf(stderr, "punovet: %-12s %v\n", tm.Analyzer, tm.Elapsed.Round(time.Microsecond))
		}
	}

	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(r) {
				return r
			}
		}
		return name
	}
	if *jsonOut {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     rel(f.Pos.Filename),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", rel(f.Pos.Filename), f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	if n := len(findings); n > 0 {
		return findingsError(n)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		var fe findingsError
		if errors.As(err, &fe) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}
