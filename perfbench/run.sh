#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the repository root. Build cache, binary,
# spill files, spans and reports all stay in the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
  PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export PERFBENCH_COMMIT
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out-dir "$out" "$@"
