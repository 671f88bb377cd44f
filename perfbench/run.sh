#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with the
# arguments given (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_kv --seed 1 --seconds 10 --trace 0
#
# Every build artifact, Go cache and run file stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off \
	GOSUMDB=off GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) || {
	echo "perfbench: build failed" >&2
	exit 2
}
exec "$bin" "$@"
