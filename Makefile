GO ?= go

.PHONY: all test lint race cover cover-update bench golden clean

all: test

# Tier-1 verification: vet + build + full test suite.
test:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...

# Static analysis: stock go vet plus punovet, the project's own analyzers
# (maprange, wallclock, hotalloc, msglife) that mechanize the
# determinism and zero-allocation invariants, then the compiler-backed
# escape gate (-escape), which parses `go build -gcflags=-m=2` diagnostics
# and fails on any heap allocation inside a //puno:hot function that no
# row of internal/lint's exemptions table covers. See DESIGN.md. gofmt
# first: a file it would rewrite fails the recipe.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) run ./cmd/punovet ./...
	$(GO) run ./cmd/punovet -escape ./...

# Race-detector pass over everything; certifies the parallel sweep runner.
race:
	$(GO) test -race ./...

# Per-package coverage audit: measure `go test -cover` for every internal
# package and gate it against the committed floors in COVERAGE.json. Any
# package dropping below its floor — or appearing without one — fails.
cover:
	$(GO) test -cover ./internal/... > cover.txt || { cat cover.txt; rm -f cover.txt; exit 1; }
	$(GO) run ./cmd/punocover -i cover.txt -thresholds COVERAGE.json
	@rm -f cover.txt

# Re-baseline the coverage floors to the current measured values (run after
# intentionally adding code whose tests land in the same change).
cover-update:
	$(GO) test -cover ./internal/... > cover.txt || { cat cover.txt; rm -f cover.txt; exit 1; }
	$(GO) run ./cmd/punocover -i cover.txt -thresholds COVERAGE.json -update
	@rm -f cover.txt

# Host-time benchmarks only: BenchmarkSweepParallelism (serial vs pooled vs
# traced sweep), the internal/noc mesh benches, internal/sim's
# BenchmarkEngineRun (ns per engine event) and internal/cache's
# BenchmarkAccessHit and BenchmarkInsertEvict (the loops of the benchmark's
# two cache kernels). Simulated results come
# from cmd/experiments (tables, figures, -exp <ablation>); substrate numbers
# from the repository benchmark's kernels, `bash bench/run.sh --trace 1`:
# sim.kernel_ns_per_event, noc.kernel_ns_per_send,
# cache.kernel_ns_per_access, htm.kernel_sig_ns_per_op, machine.run_ms.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Regenerate every golden file after an intentional change: the root
# package's testdata/*golden* (sweep, ensemble, trace text, big256, wire
# formats) and cmd/punotrace's testdata/diff.golden, which pins the rendered
# first divergence of two simulated event traces (TestEventsDiffRoundTrip).
# The package comes before -update: go test hands everything after a flag it
# does not know to the test binary, package paths included.
golden:
	$(GO) test . -run Golden -update
	$(GO) test ./cmd/punotrace -run TestEventsDiffRoundTrip -update

clean:
	$(GO) clean ./...
	rm -f cover.txt
