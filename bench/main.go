// Command bench is the repository's benchmark: workloads over the simulator,
// the PDES coordinator, the sweep runner and punoserve over HTTP, each
// measured end to end (untraced) and layer by layer (a separate traced run). BENCHMARK.json at the repo root declares the metrics and
// bounds; README.md in this directory says what each number means.
//
//	bash bench/run.sh --workload sim_hc16 --seed 1 --seconds 28 --trace 0
//	bash bench/run.sh --seed 1 --runs 3 --out a.json     # every workload, a result set
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// workloadNames is the order workloads run and print in; BENCHMARK.json
// carries the same list with each one's reason. The host's speed swings over
// tens of seconds, so a window has to be about half a minute long before two
// runs of one commit agree, and the acceptance driver's time limit then has
// room for four workloads.
var workloadNames = []string{"sim_hc16", "sim_lc16", "sim_big64", "serve_warm"}

// extraWorkloads run when named with -workload, with the same metrics and
// checks: the two workloads of the issue that the time limit left no room
// for. BENCHMARK.json does not list them, so no bound is enforced on them.
var extraWorkloads = []string{"sweep_par", "serve_cold"}

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "serve_cold", "serve_warm":
		return newServeWorkload(name, e)
	default:
		return newSimWorkload(name, e)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outDir is where trace files and scratch records go: bench/out, whether
// the benchmark was started from the repo root (run.sh) or from bench/
// (go run .). The root .gitignore names it.
func outDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this workload only (default: each one in its own child process)")
		seed    = fs.Uint64("seed", 1, "every Config.Seed and request seed derives from it")
		seconds = fs.Float64("seconds", 28, "length of the timed window")
		traced  = fs.Int("trace", 0, "1: the traced run (per-layer metrics, trace file); 0: end-to-end metrics")
		runs    = fs.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, …")
		out     = fs.String("out", "", "without -workload: write the result set here, for -compare")
		compare = fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		spec    = fs.String("spec", "", "path of BENCHMARK.json (default: ./ or ../)")
		rec     = fs.String("record", "", "write this run's full record here (how the parent collects its children)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// verdict is the exit code of a mode that can fail to run (err) or run
	// and find something wrong (!ok).
	verdict := func(ok bool, err error) int {
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result-set files"))
		}
		return verdict(compareSets(stdout, *spec, fs.Arg(0), fs.Arg(1)))
	case fs.NArg() != 0:
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	case *traced != 0 && *traced != 1, *seconds <= 0, *runs < 1:
		return fail(errors.New("-trace is 0 or 1, -seconds and -runs are positive"))
	case *name == "":
		return verdict(runAll(stdout, stderr, *seed, *seconds, *traced, *runs, *out))
	}

	runtime.GOMAXPROCS(workerCount())
	e := &env{seed: *seed, workers: workerCount(), sz: fullSizes(*seconds), outDir: outDir(), log: stdout}
	return runOne(e, *name, *traced == 1, *rec, stdout, stderr)
}

// runOne measures one workload in this process, prints its metrics and the
// result line, and returns the exit code: non-zero when the run could not be
// made or any of its correctness checks failed.
func runOne(e *env, name string, traced bool, recPath string, stdout, stderr io.Writer) int {
	measure := runUntraced
	if traced {
		measure = runTraced
	}
	r, err := measure(e, name)
	if err == nil && recPath != "" {
		var raw []byte
		if raw, err = json.Marshal(r); err == nil {
			err = os.WriteFile(recPath, raw, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printRecord(stdout, r)
	fmt.Fprintln(stdout, r.resultLine())
	if !r.Correct {
		return 1
	}
	return 0
}

// printRecord prints every metric by name with its unit, then what the
// checks found.
func printRecord(w io.Writer, r *record) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s seed %d traced %v: %d ops attempted, %d failed, %d timed samples\n",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.Samples)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	if !r.Traced {
		fmt.Fprintf(w, "  host_speed %.4f in the window (unscaled op_ms_p50 %.6g ms): times above are host time x host_speed, rates host rate / host_speed\n",
			r.HostSpeed, r.Metrics["op_ms_p50"].Value/r.HostSpeed)
	}
	if r.SimDigest != "" {
		fmt.Fprintf(w, "  sim_digest %s\n", r.SimDigest)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// runAll runs every workload, each run in a child process of its own so
// that peak RSS, GC state and warmed caches do not leak from one workload
// into the next.
func runAll(stdout, stderr io.Writer, seed uint64, seconds float64, traced, runs int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(outDir(), "records-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	set := resultSet{Host: readHostInfo()}
	ok := true
	for _, name := range workloadNames {
		for r := 0; r < runs; r++ {
			recPath := filepath.Join(tmp, "record.json")
			cmd := exec.Command(self,
				"-workload", name, "-seed", fmt.Sprint(seed+uint64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-record", recPath)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run()
			var exit *exec.ExitError
			if runErr != nil && !errors.As(runErr, &exit) {
				return false, fmt.Errorf("%s: %w", name, runErr)
			}
			raw, err := os.ReadFile(recPath)
			if err != nil {
				return false, fmt.Errorf("%s: the child left no record: %w", name, err)
			}
			os.Remove(recPath)
			var rec record
			if err := json.Unmarshal(raw, &rec); err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			ok = ok && runErr == nil && rec.Correct
			set.Records = append(set.Records, rec)
		}
	}
	if traced == 0 {
		printSummary(stdout, &set)
	}
	if out != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// byWorkload gathers one metric's values over the (untraced or traced)
// records of each workload.
func (s *resultSet) byWorkload(traced bool, metric string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range s.Records {
		if v, ok := r.Metrics[metric]; ok && r.Traced == traced {
			out[r.Workload] = append(out[r.Workload], v.Value)
		}
	}
	return out
}

// printSummary prints the medians over the set's runs.
func printSummary(w io.Writer, s *resultSet) {
	h := s.Host
	fmt.Fprintf(w, "\nhost: %d x %s, %s, GOMAXPROCS %d, GOGC %s\n", h.NProc, h.CPUModel, h.GoVersion, h.GOMAXPROCS, h.GOGC)
	fmt.Fprintf(w, "%-24s", "median over runs")
	for _, name := range workloadNames {
		fmt.Fprintf(w, " %12s", name)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		vals := s.byWorkload(false, d.Name)
		fmt.Fprintf(w, "%-24s", d.Name+" ["+d.Unit+"]")
		for _, name := range workloadNames {
			fmt.Fprintf(w, " %12.5g", median(vals[name]))
		}
		fmt.Fprintln(w)
	}
	var digests []string
	for _, r := range s.Records {
		if r.SimDigest != "" {
			digests = append(digests, fmt.Sprintf("sim_digest %s seed %d %s", r.Workload, r.Seed, r.SimDigest))
		}
	}
	sort.Strings(digests)
	for _, d := range digests {
		fmt.Fprintln(w, d)
	}
}
