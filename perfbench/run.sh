#!/usr/bin/env bash
# Builds sfcserved and the perfbench driver from the checkout it is run
# in, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload render-hot --seed 1 --seconds 34 --trace 0
#
# Run it from the repository root. The Go build cache, the binaries and
# every file a run writes live under .bench_build, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sfcserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/sfcserved and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
(
	cd perfbench
	go build -o "$out/sfcserved" sfcmem/cmd/sfcserved
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" -server "$out/sfcserved" -workdir "$out" "$@"
