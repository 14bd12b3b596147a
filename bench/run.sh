#!/usr/bin/env bash
# Builds the benchmark driver (bench/asfperf) from this checkout and runs it
# with every argument passed through. Run it from the repository root:
#
#   bash bench/run.sh                                  # all workloads, both passes, probes
#   bash bench/run.sh -workload intset -trace 0 -o bench/out/a1.json
#   bash bench/run.sh --workload stamp --seed 3 --seconds 20 --trace 1
#
# The binary, the Go build cache and the go command's own state live in
# .bench_build/, so a run writes nothing outside the checkout. Without the
# stack's sources next to bench/ the build fails and nothing is printed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# Stamp the git revision into the binary only when building inside a clone.
vcs=false
if [ -e .git ]; then vcs=auto; fi
(
	cd bench
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
		go build -buildvcs="$vcs" -o "$out/asfperf" ./asfperf
)
exec "$out/asfperf" "$@"
