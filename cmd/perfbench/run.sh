#!/usr/bin/env bash
# Builds cmd/perfbench from the checkout that holds this script and runs
# it with the given flags. The binary, the Go build cache, Go's temporary
# files and its configuration directory (where the go command keeps its
# telemetry counters and reads the user's `go env -w` settings) go to
# .bench_build at the checkout root, so nothing is written outside it,
# and the toolchain never reaches the network.
#
#   bash cmd/perfbench/run.sh -workload table1-cold -seed 1 -seconds 20 -trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd -P)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# The run header names the commit, with -dirty for uncommitted changes;
# when the checkout is not the top of a git work tree it says unknown.
commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit="$commit-dirty"
fi
go -C "$root/cmd/perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
