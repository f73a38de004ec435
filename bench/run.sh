#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it from the checkout's root:
#
#   bash bench/run.sh --workload cold-plan --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --workload all --seed 1
#   bash bench/run.sh compare -a runs/parent -b runs/change
#   bash bench/run.sh check
#
# Everything the build and the runs write (Go build cache, the binary,
# Chrome traces) stays under .bench_build/ in the checkout. Without the
# simulator's sources next to bench/ the build fails and so does this
# script. "check" runs the benchmark module's own gofmt, vet, sentinel-vet
# and race-enabled tests, which the root module's do not reach.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [[ "${1:-}" == check ]]; then
	cd "$root/bench"
	unformatted="$(gofmt -l .)"
	if [[ -n "$unformatted" ]]; then
		echo "gofmt needed: $unformatted" >&2
		exit 1
	fi
	go vet ./...
	go run sentinel/cmd/sentinel-vet ./...
	exec go test -race -count=1 ./...
fi

go -C "$root/bench" build -o "$out/sentinel-bench" .
cd "$root"
exec "$out/sentinel-bench" "$@"
