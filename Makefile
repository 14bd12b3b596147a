# Tier-1 verification targets. `make verify` is what CI and pre-merge
# checks run: a gofmt check, build + vet + full tests, the race detector on
# the packages with real host concurrency or schedule exploration (the
# parallel experiment scheduler, the litmus explorer, the transaction
# lifecycle driver in internal/tm and every runtime it serves: ASF-TM,
# HyTM, STM, Cohorts and the adaptive selector, and the free lists every
# harness worker shares: internal/slab and its users mem, cache and sim),
# and vet + tests of the nested bench module, which `./...` skips but
# which compiles against the stack's option and report types.

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
	$(GO) test -race -short ./internal/harness ./internal/asftm ./internal/litmus \
		./internal/tm ./internal/hytm ./internal/stm ./internal/cohorts ./internal/adaptive \
		./internal/slab ./internal/mem ./internal/cache ./internal/sim

benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

verify: fmt build vet test race benchmod

# `make bench` runs the repository benchmark (bench/asfperf, see
# bench/README.md): the host time, heap allocation and set-up time of four
# pinned experiment sweeps, checked against their committed sim digests.
bench:
	bash bench/run.sh
