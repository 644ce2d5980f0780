#!/bin/sh
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the arguments given. Everything the build
# writes (binary, Go build cache, span files) stays under .bench_build/.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
