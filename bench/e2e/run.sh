#!/usr/bin/env bash
# Builds bench_berlin_e2e (Release) from this checkout and runs it.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/e2e/run.sh [--trace]       # every workload, default settings
#
# Build output goes to stderr; stdout carries the benchmark's report line
# and, last, its summary line. The build directory is $CARGO_TARGET_DIR
# when that is set, else build-bench/ at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: no GEMS sources at $root/src; run from a full checkout" >&2
  exit 2
fi

target="${CARGO_TARGET_DIR:-$root/build-bench}"
[[ "$target" = /* ]] || target="$PWD/$target"
cmake -S "$here" -B "$target" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$target" -j "$(nproc)" --target bench_berlin_e2e >&2

sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
args=()
workload=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; args+=("$1" "$2"); shift 2 ;;
    # A bare --trace means --trace 1.
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then args+=("$1" "$2"); shift 2
      else args+=(--trace 1); shift; fi ;;
    *) args+=("$1"); shift ;;
  esac
done

run() {
  "$target/bench_berlin_e2e" --workdir "$target/e2e-work" --git-sha "$sha" "$@"
}
if [[ -n "$workload" ]]; then
  run "${args[@]}"
else
  for w in short_reads long_reads reads_with_ingest; do
    run --workload "$w" ${args[@]+"${args[@]}"}
  done
fi
