#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload tpcw-pods --seed 1 --seconds 20 --trace 0
#
# All build state (Go build cache, binary, toolchain config) stays under
# .bench_build (or $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

src="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
