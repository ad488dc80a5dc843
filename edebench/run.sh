#!/usr/bin/env bash
# Builds the edebench binary from the checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash edebench/run.sh --workload udp-hit --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, the go command's local
# telemetry) stays under .bench_build/ in the checkout; module downloads
# are disabled, the repository is stdlib only.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/edebench" && go build -o "$out/edebench" .)
exec "$out/edebench" -root "$root" "$@"
