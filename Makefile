# Tier-1 verification targets. `make verify` is what CI and pre-merge
# checks run: a gofmt check, build + vet + full tests, the race detector on
# the three packages with real host concurrency or schedule exploration
# (the parallel experiment scheduler, the TM runtime it drives, and the
# litmus explorer), and vet + tests of the nested bench module, which
# `./...` skips but which compiles against the stack's option and report
# types.

GO ?= go

.PHONY: fmt build vet test race benchmod verify bench

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/harness ./internal/asftm ./internal/litmus

benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

verify: fmt build vet test race benchmod

# `make bench` runs the figure benchmarks plus the simulator
# micro-benchmarks and records the results in $(BENCH_JSON) (section
# $(BENCH_SECTION); see EXPERIMENTS.md for the schema). The figure sweeps
# run once (-benchtime 1x); the noise-sensitive op-rate micro-benchmark is
# re-run longer and its later lines override the 1x pass.
BENCH_JSON ?= BENCH_PR10.json
BENCH_SECTION ?= current

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x -timeout 60m . > BENCH_OUT.txt
	$(GO) test -run '^$$' -bench BenchmarkSimulatorOpRate -benchtime 2s . >> BENCH_OUT.txt
	cat BENCH_OUT.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) -section $(BENCH_SECTION) < BENCH_OUT.txt
