#!/usr/bin/env bash
# Builds the benchmark and the rvserved daemon from the sources of this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/perfbench
# in the checkout: the Go build cache, temporary files, the binaries, the
# daemon's cache files and the span dumps of traced runs.
set -euo pipefail

if [ ! -f perfbench/go.mod ] || [ ! -f go.mod ]; then
	echo "perfbench: run from the repository root (perfbench/ and the repro module are both needed)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd perfbench && go build -o "$out/perfbench" .) >&2
go build -o "$out/rvserved" ./cmd/rvserved >&2

exec "$out/perfbench" -root "$root" -rvserved "$out/rvserved" -out "$out" "$@"
