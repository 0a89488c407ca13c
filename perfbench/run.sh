#!/usr/bin/env bash
# Builds the DPI daemons (dpictl, mboxd, dpinstance) and the perfbench
# program from the checkout it is started in, then runs one workload:
#
#   bash perfbench/run.sh --workload bulk-http --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# logs stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dpinstance" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a dpiservice checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/runs"
# Keep the toolchain's caches and settings inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/dpictl ./cmd/mboxd ./cmd/dpinstance
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/runs" "$@"
