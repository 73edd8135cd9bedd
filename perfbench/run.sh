#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of the repository:
#
#   bash perfbench/run.sh --workload ycsb-a-1k --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, the Go build cache) and the
# spans a traced run writes go under .bench_build/ in the checkout. The
# benchmark is a module of its own that replaces `repro` with the
# checkout root, so outside a checkout the build fails and the script
# exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
