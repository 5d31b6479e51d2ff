#!/usr/bin/env bash
# Same-session A/B of one google-benchmark target: an earlier revision (A)
# against the working tree (B), in alternating rounds, judged by
# scripts/bench_compare.py.
#
#   scripts/bench_ab.sh <rev> <bench-target> <rounds> [filter]
#   scripts/bench_ab.sh --dry-run <rev> <bench-target> <rounds> [filter]
#
#   scripts/bench_ab.sh HEAD~ bench_table1_relational_ops 10
#   scripts/bench_ab.sh HEAD bench_multistatement 10 'Independent'
#
# <rev> is exported with `git archive` (no worktree is registered, so the
# repository's own .git is left as it was) and built in Release next to a
# Release build of the working tree, both under BENCH_AB_DIR (default
# build-ab/ at the repository root). Round i runs both binaries, A first
# in odd rounds and B first in even ones, and writes A<i>.json and
# B<i>.json, each with git_sha and build_type in its context. Then the
# script prints and runs
#
#   bench_compare.py A1.json ... A<n>.json -- B1.json ... B<n>.json
#
# and exits with its status (1 when a row reads `regression`). BENCH_ARGS
# is appended to every benchmark run (default repetitions: 3). --dry-run
# prints the plan, every build and run command, without running any.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"

dry_run=0
if [[ "${1:-}" == --dry-run ]]; then
  dry_run=1
  shift
fi
usage="usage: scripts/bench_ab.sh [--dry-run] <rev> <bench-target> <rounds> [filter]"
rev="${1:?$usage}"
bench="${2:?$usage}"
rounds="${3:?$usage}"
filter="${4:-}"
if ! [[ "$rounds" =~ ^[1-9][0-9]*$ ]]; then
  echo "bench_ab.sh: <rounds> must be a positive integer, got '$rounds'" >&2
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
echo "$rounds rounds of $bench${filter:+, filter '$filter'}"

step rm -rf "$dir/src-A" "$out"
step mkdir -p "$dir/src-A" "$out"
if [[ $dry_run == 0 ]]; then
  git archive "$sha_a" | tar -x -C "$dir/src-A"
else
  echo "+ git archive $sha_a | tar -x -C $dir/src-A"
fi
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

files_a=()
files_b=()
for ((i = 1; i <= rounds; i++)); do
  echo "round $i of $rounds"
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

echo "verdicts over $rounds alternating rounds (A = $rev, B = working tree):"
step python3 scripts/bench_compare.py "${files_a[@]}" -- "${files_b[@]}"
