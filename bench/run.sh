#!/usr/bin/env bash
# Builds ptbench from this checkout's sources and runs it, passing every
# argument through (see bench/README.md). The Go build cache, temporary
# files and the binary live under .bench_build/ at the repository root
# (or under $CARGO_TARGET_DIR when set), so a run writes nothing outside
# the checkout. Outside a full checkout the build fails and the script
# exits non-zero.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOTMPDIR"

go -C "$here" build -o "$out/ptbench" ./ptbench
exec "$out/ptbench" --trace-dir "$out/trace" "$@"
