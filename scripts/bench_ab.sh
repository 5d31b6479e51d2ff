#!/usr/bin/env bash
# Interleaved A/B of an earlier revision (A) against the working tree (B),
# in alternating rounds: one google-benchmark target judged by
# scripts/bench_compare.py, or (--e2e) one bench/e2e workload judged by
# bench/e2e/compare.py.
#
#   scripts/bench_ab.sh [--dry-run] <rev> <bench-target> <rounds> [filter]
#   scripts/bench_ab.sh [--dry-run] --e2e <rev> <workload> <pairs>
#
#   scripts/bench_ab.sh HEAD~ bench_table1_relational_ops 10
#   scripts/bench_ab.sh HEAD bench_multistatement 10 'Independent'
#   scripts/bench_ab.sh --e2e HEAD long_reads 10
#
# <rev> is exported with `git archive` (no worktree is registered, so the
# repository's own .git is left as it was) under BENCH_AB_DIR (default
# build-ab/ at the repository root).
#
# A google-benchmark A/B builds both trees in Release under BENCH_AB_DIR.
# Round i runs both binaries, A first in odd rounds and B first in even
# ones, and writes A<i>.json and B<i>.json, each with git_sha and
# build_type in its context. Then the script prints and runs
#
#   bench_compare.py A1.json ... A<n>.json -- B1.json ... B<n>.json
#
# and exits with its status (1 when a row reads `regression`). BENCH_ARGS
# is appended to every benchmark run (default repetitions: 3).
#
# An --e2e A/B first builds each side in Release into
# CARGO_TARGET_DIR=BENCH_AB_DIR/e2e-<side> with the cmake steps of that
# side's own bench/e2e/run.sh; a failed build stops the script. Pair i
# then runs `run.sh --workload <workload> --seed i --trace 0` (the
# benchmark's default settings) on both sides, alternating as above, and
# saves each run's stdout as A<i>.json or B<i>.json; a run that exits
# non-zero is kept (compare.py counts its failed operations). Then the
# script prints and runs
#
#   bench/e2e/compare.py A1.json ... A<n>.json -- B1.json ... B<n>.json
#
# and exits with its status. Git does not search above BENCH_AB_DIR, so A's
# export (no .git) reports git sha `unknown`.
#
# --dry-run prints the plan, every build and run command, without running
# any.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"

dry_run=0
e2e=0
while [[ "${1:-}" == --dry-run || "${1:-}" == --e2e ]]; do
  [[ $1 == --dry-run ]] && dry_run=1
  [[ $1 == --e2e ]] && e2e=1
  shift
done
usage="usage: scripts/bench_ab.sh [--dry-run] <rev> <bench-target> <rounds> [filter]
       scripts/bench_ab.sh [--dry-run] --e2e <rev> <workload> <pairs>"
rev="${1:?$usage}"
bench="${2:?$usage}"
rounds="${3:?$usage}"
filter="${4:-}"
unit=rounds
if [[ $e2e == 1 ]]; then
  unit=pairs
  if [[ $# -gt 3 ]]; then
    echo "bench_ab.sh: --e2e takes no filter" >&2
    echo "$usage" >&2
    exit 2
  fi
fi
if ! [[ "$rounds" =~ ^[1-9][0-9]*$ ]]; then
  echo "bench_ab.sh: <$unit> must be a positive integer, got '$rounds'" >&2
  exit 2
fi

sha_a="$(git rev-parse --verify "$rev^{commit}")"
sha_b="$(git describe --always --abbrev=40 --dirty)"
dir="${BENCH_AB_DIR:-$root/build-ab}"
[[ "$dir" = /* ]] || dir="$root/$dir"
out="$dir/rounds"

# Prints a command; runs it too unless this is a dry run.
step() {
  printf '+'
  printf ' %q' "$@"
  printf '\n'
  if [[ $dry_run == 0 ]]; then "$@"; fi
}

echo "A: $rev ($sha_a), exported to $dir/src-A"
echo "B: working tree ($sha_b)"
echo "$rounds $unit of $bench${filter:+, filter '$filter'}"

step rm -rf "$dir/src-A" "$out"
step mkdir -p "$dir/src-A" "$out"
if [[ $dry_run == 0 ]]; then
  git archive "$sha_a" | tar -x -C "$dir/src-A"
else
  echo "+ git archive $sha_a | tar -x -C $dir/src-A"
fi

# Side $1's run of round $2.
if [[ $e2e == 1 ]]; then
  for side in A B; do
    src="$root"
    [[ $side == A ]] && src="$dir/src-A"
    step cmake -S "$src/bench/e2e" -B "$dir/e2e-$side" \
      -DCMAKE_BUILD_TYPE=Release
    step cmake --build "$dir/e2e-$side" -j "$(nproc)" \
      --target bench_berlin_e2e
  done
  # Its stdout is the report. A failed run is kept: compare.py counts its
  # failed operations.
  run_side() {
    local side="$1" round="$2" src="$root"
    [[ $side == A ]] && src="$dir/src-A"
    local cmd=(env GIT_CEILING_DIRECTORIES="$dir"
               CARGO_TARGET_DIR="$dir/e2e-$side" bash
               "$src/bench/e2e/run.sh" --workload "$bench" --seed "$round"
               --trace 0)
    printf '+'
    printf ' %q' "${cmd[@]}"
    printf ' > %q\n' "$out/$side$round.json"
    if [[ $dry_run == 0 ]]; then
      "${cmd[@]}" > "$out/$side$round.json" ||
        echo "bench_ab.sh: run $side$round exited with status $?" >&2
    fi
  }
  compare=bench/e2e/compare.py
else
  for side in A B; do
    src="$root"
    [[ $side == A ]] && src="$dir/src-A"
    step cmake -S "$src" -B "$dir/build-$side" -DCMAKE_BUILD_TYPE=Release
    step cmake --build "$dir/build-$side" -j "$(nproc)" --target "$bench"
  done
  run_side() {
    local side="$1" round="$2" sha="$sha_b"
    [[ $side == A ]] && sha="$sha_a"
    # shellcheck disable=SC2086  # BENCH_ARGS is intentionally word-split
    step "$dir/build-$side/bench/$bench" \
      --benchmark_repetitions=3 \
      ${filter:+--benchmark_filter="$filter"} \
      --benchmark_out="$out/$side$round.json" \
      --benchmark_out_format=json \
      --benchmark_context=git_sha="$sha",build_type=Release \
      ${BENCH_ARGS:-}
  }
  compare=scripts/bench_compare.py
fi

files_a=()
files_b=()
for ((i = 1; i <= rounds; i++)); do
  echo "${unit%s} $i of $rounds"
  if ((i % 2 == 1)); then
    run_side A "$i"
    run_side B "$i"
  else
    run_side B "$i"
    run_side A "$i"
  fi
  files_a+=("$out/A$i.json")
  files_b+=("$out/B$i.json")
done

echo "verdicts over $rounds alternating $unit (A = $rev, B = working tree):"
step python3 "$compare" "${files_a[@]}" -- "${files_b[@]}"
