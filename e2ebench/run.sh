#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it sits in
# and runs it with the given arguments. Run it from the root of the checkout:
#
#   bash e2ebench/run.sh --workload adhoc --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout. Without the engine's sources next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

# The go command's caches, temp files and telemetry counters, and the
# engine's spill files (os.TempDir), all land under .bench_build/.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
