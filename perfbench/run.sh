#!/usr/bin/env bash
# Builds chatiyp-server and the load generator from source, then runs one
# benchmark measurement:
#
#   bash perfbench/run.sh --workload ask --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the repository (Go's build cache included).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOENV=off

# With no mode file the go command's telemetry defaults to "local" and
# starts a detached sidecar process that outlives the build; switch it off
# in the private config directory so no process is left behind.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"

go build -o "$out/chatiyp-server" ./cmd/chatiyp-server
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" -server "$out/chatiyp-server" -work "$out/work" "$@"
