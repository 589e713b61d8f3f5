# Local and CI entry points. The CI workflow calls these same targets,
# so the two invocations cannot drift.

GO ?= go
SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo nosha)

.PHONY: all build vet fmt-check lines test cover race bench bench-module bench-compare bench-check profile fuzz fuzz-nightly fuzz-malformed

all: build vet fmt-check test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs reformatting, printing the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; \
		echo "$$out"; \
		exit 1; \
	fi

# Go line counts of the tracked files outside bench/, split into
# non-test and test code: the before/after figures every change reports.
lines:
	@files="$$(git ls-files -- '*.go' ':!:bench/**')"; \
	printf 'non-test %s\n' "$$(echo "$$files" | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	printf 'test %s\n' "$$(echo "$$files" | grep '_test\.go$$' | xargs cat | wc -l)"

test:
	$(GO) test ./...

# Statement coverage of the whole module from the root test suite: each
# package's tests count toward every package they execute
# (-coverpkg=./...). Prints the functions no test executes (0.0%) and
# the total. The bside main() runs that TestMainScenarios re-executes
# as child processes are counted too: they write their counters into
# the parent test's coverage directory.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | awk '$$NF == "0.0%" || $$1 == "total:"'

# Race-detector pass over the concurrent paths: the shared-interface
# analyzer, the on-disk cache (with its process-wide memory tier), the
# staged pipeline with its intra-binary worker pool and the
# symbolic-execution budget its runs add their steps to, the public batch
# API, the sweep harness's producer/consumer pipeline, and the fuzzing
# harness (whose invariance legs fan analyses across worker pools).
race:
	$(GO) test -race ./internal/cache/... ./internal/shared/... \
		./internal/pipeline/... ./internal/ident/... ./internal/symex/... ./internal/cfg/... \
		./internal/fuzzer/... ./internal/serve/... ./internal/sweep/... \
		./internal/elff/... ./internal/guard/... ./internal/faults/... .

# One-iteration benchmark smoke run.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The end-to-end benchmark harness under bench/ is its own Go module, so
# the root `go test ./...` never compiles it, yet it calls the shared,
# ident and pipeline internals directly. Vet and test it on its own.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Benchmark comparison artifact: the cold/warm cache, serial/parallel
# batch, the intra-binary large-binary benchmarks, and the frontend
# (CFG recovery) benchmark rendered (with -benchmem, so the allocation
# trajectory is captured too) as BENCH_<sha>.json — the per-PR
# performance trajectory CI uploads. SweepTree covers its Cold, Warm
# and WarmUndecided (stored budget verdicts) sub-benchmarks. Twenty
# iterations amortize the first-iteration warm-up and a stray GC's pool
# refills, so allocs/op repeats run to run; at three, RecoverLargeBinary
# alone read 43 or 67. The bench run lands in a temp file first: a pipe
# would mask bench failures (sh reports the last pipe element), and the
# in-bench worker-count drift guard must be able to fail this target.
bench-compare:
	$(GO) test -run='^$$' -bench='AnalyzeAllColdCache|AnalyzeAllWarmCache|AnalyzeAllSerial|AnalyzeAllParallel|AnalyzeLargeBinary|RecoverLargeBinary|ServeWarmHash|SweepTree|PrecisionCorpus|WarmLookup' \
		-benchtime=20x -benchmem -count=1 . > bench-compare.tmp
	$(GO) run ./cmd/benchjson -commit $(SHA) < bench-compare.tmp > BENCH_$(SHA).json
	@rm -f bench-compare.tmp
	@echo "wrote BENCH_$(SHA).json"

# Regression gate: the fresh artifact against the committed baseline.
# Gated metrics are the machine-independent ones: allocs/op (the
# allocation trajectory) and identified/op (the resolver's mean
# identified-set size over the fixed precision corpus — a rise means
# indirect-call resolution stopped shrinking sets). ns/op depends on
# the runner (the baseline was recorded on a different box than CI's),
# so time lands in the artifact for human trending but is not gated.
# >10% regression on any gated metric fails the build, and
# -require-baseline fails when a gated benchmark is missing from the
# committed baseline (a PR adding one must refresh BENCH_seed.json in
# the same change).
bench-check: bench-compare
	$(GO) run ./cmd/benchjson -compare -metrics allocs/op,identified/op -require-baseline BENCH_seed.json BENCH_$(SHA).json

# CPU+heap profiles of the dominant workload (the large-binary
# identification pass) plus the pprof one-liners to read them. The
# serial profile shows the per-block work; the 4-worker one is the
# shape the one-shot CLI runs (IntraWorkers = nproc), where costs
# shared between workers show up. The frontend profile is CFG recovery
# of a FailCFGHuge image, the shape of a cold sweep's decode stage, and
# the decode profile is the decoder alone over that image's
# instructions, in place into a reused slice as CFG recovery runs it.
# The forks profile is cold analyses of the 30 seed-42 binaries that
# exhaust the symbolic-execution budget, where forks dominate.
profile:
	$(GO) test -run='^$$' -bench='AnalyzeLargeBinary/workers=1' -benchtime=10x -benchmem \
		-cpuprofile=cpu.prof -memprofile=mem.prof -o bside.test .
	$(GO) test -run='^$$' -bench='AnalyzeLargeBinary/workers=4' -benchtime=10x \
		-cpuprofile=cpu-w4.prof -o bside.test .
	$(GO) test -run='^$$' -bench='RecoverHuge' -benchtime=50x -benchmem \
		-cpuprofile=cpu-recover.prof -o bside.test .
	$(GO) test -run='^$$' -bench='^BenchmarkDecode$$' -benchtime=200x \
		-cpuprofile=cpu-decode.prof -o bside.test .
	$(GO) test -run='^$$' -bench='AnalyzeBudgetExhausting' -benchtime=50x \
		-cpuprofile=cpu-forks.prof -o bside.test .
	@echo ""
	@echo "profiles written: cpu.prof cpu-w4.prof cpu-recover.prof cpu-decode.prof cpu-forks.prof mem.prof (binary: bside.test)"
	@echo "  $(GO) tool pprof -top -nodecount=20 bside.test cpu.prof"
	@echo "  $(GO) tool pprof -top -nodecount=20 bside.test cpu-w4.prof"
	@echo "  $(GO) tool pprof -top -nodecount=20 bside.test cpu-recover.prof"
	@echo "  $(GO) tool pprof -top -nodecount=20 bside.test cpu-decode.prof"
	@echo "  $(GO) tool pprof -top -nodecount=20 bside.test cpu-forks.prof"
	@echo "  $(GO) tool pprof -top -nodecount=20 -sample_index=alloc_objects bside.test mem.prof"
	@echo "  $(GO) tool pprof -http=:8080 bside.test cpu.prof   # flame graph"

# Randomized corpus fuzzing: soundness + invariance + baseline-sanity
# oracle over a seed range, JSON verdict lines on stdout, non-zero exit
# on any violation. Failing seeds are shrunk to minimal reproducers
# under fuzz-repros/ (promote fixed ones into
# internal/fuzzer/testdata/regressions/).
FUZZ_SEEDS ?= 50
FUZZ_START ?= 1
fuzz:
	$(GO) run ./cmd/bside fuzz -seeds $(FUZZ_SEEDS) -start $(FUZZ_START) -repro fuzz-repros

# Adversarial-input smoke: replays the checked-in malformed-ELF corpus
# under the race detector (structured rejection through every entry
# path, allocation-bomb ceiling), then gives each coverage-guided ELF
# fuzz target, and the instruction decoder's, a bounded mutation
# budget. Corpus replay is cheap and deterministic; the -fuzztime legs
# hunt for new crashers. A crasher found here lands in
# internal/elff/testdata/fuzz/ (or internal/x86/testdata/fuzz/) —
# minimize it and promote an ELF one into testdata/malformed/ with the
# others, a decoder one into the decoder's tests.
FUZZTIME ?= 30s
fuzz-malformed:
	$(GO) test -race -run 'Malformed|AllocationBomb|Corpus' ./internal/elff/ . ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZTIME) ./internal/elff/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenBinary$$' -fuzztime $(FUZZTIME) ./internal/elff/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/x86/

# The nightly CI shape: a wider seed range under the race detector,
# plus the per-seed precision report (identified vs resolver-off vs
# emulator truth set sizes) CI uploads as an artifact.
FUZZ_NIGHTLY_SEEDS ?= 400
fuzz-nightly:
	$(GO) run -race ./cmd/bside fuzz -seeds $(FUZZ_NIGHTLY_SEEDS) -start $(FUZZ_START) \
		-repro fuzz-repros -precision fuzz-precision.json
