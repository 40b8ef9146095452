#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload pack-10k --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything the build writes (the Go
# build cache, temporary files, the binary) stays under .bench_build/,
# and the benchmark writes its reports under .bench_out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

# Stamp the commit when the checkout is a usable git repository; build
# without the stamp when it is not.
(cd "$root/perfbench" && { go build -o "$build/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$build/perfbench" .; })
exec "$build/perfbench" "$@"
