#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache, the
# stores and the span files all go under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work "$out" "$@"
