#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every build
# artefact (binary, Go build cache, temp files) stays under hivebench/.build,
# and the run's reports, spans and stall dumps go to hivebench/out.
#
#   bash hivebench/run.sh --workload scan-agg --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [[ ! -f "$here/../go.mod" ]]; then
	echo "hivebench: no go.mod beside the benchmark directory; run from a full checkout" >&2
	exit 2
fi

build="$here/.build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps its settings and telemetry counters in the user
# config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -o "$build/hivebench" .)
exec "$build/hivebench" -out "$here/out" "$@"
