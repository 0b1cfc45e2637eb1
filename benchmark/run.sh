#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark runner and the
# distjoind daemon from this checkout's source into .bench_build/, then runs
# the runner with the caller's arguments. HOME and GOCACHE point into
# .bench_build/ so the Go toolchain writes nothing outside the checkout, and
# Go telemetry is switched off there: with a fresh HOME the go command would
# otherwise start a detached telemetry child that outlives this script.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
if [[ ! -f $root/go.mod || ! -d $root/cmd/distjoind ]]; then
	echo "benchmark: $root does not hold the program (no go.mod or cmd/distjoind)" >&2
	exit 1
fi
mkdir -p "$build/bin" "$build/home/.config/go/telemetry"
echo off >"$build/home/.config/go/telemetry/mode"

gobuild() {
	HOME=$build/home XDG_CONFIG_HOME=$build/home/.config \
		GOCACHE=$build/gocache GOPATH=$build/gopath \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
		go build "$@"
}
(cd "$root" && gobuild -o "$build/bin/distjoind" ./cmd/distjoind)
(cd "$root/benchmark" && gobuild -o "$build/bin/benchmark" .)

exec "$build/bin/benchmark" -root "$root" -distjoind "$build/bin/distjoind" "$@"
