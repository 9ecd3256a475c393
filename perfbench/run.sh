#!/usr/bin/env bash
# Builds the benchmark program from source into .bench_build/ under the
# current directory (the root of a checkout) and runs it with the given
# arguments. Every build and cache file stays inside .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
