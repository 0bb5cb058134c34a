#!/usr/bin/env bash
# Builds and runs the repository benchmark, cmd/predictload, from the root of
# a checkout. Arguments go to predictload, for example
#
#   bash cmd/predictload/run.sh --workload snap-binary --seed 1 --seconds 8 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the predictload and predictd
# binaries, daemon state directories and span files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/predictd ]; then
	echo "run.sh: run from the root of a larpredictor checkout (no go.mod or cmd/predictd here)" >&2
	exit 1
fi
build=$PWD/.bench_build
mkdir -p "$build/tmp"
# The toolchain may neither download anything nor read or write outside the
# checkout.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false
(cd cmd/predictload && go build -o "$build/predictload" .)
exec "$build/predictload" "$@"
