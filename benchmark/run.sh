#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. `go run ./benchmark` does the same from a developer's shell;
# this wrapper exists so that a pipeline's run leaves nothing outside the
# checkout: the Go build cache, temporary files and the binary all live in
# .bench_build, and no toolchain is downloaded. Run it from the repository
# root.
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
export GOPATH=${GOPATH:-$build/gopath}
go build -o "$build/vertigo-benchmark" ./benchmark
exec "$build/vertigo-benchmark" "$@"
