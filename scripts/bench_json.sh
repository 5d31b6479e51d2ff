#!/usr/bin/env bash
# Runs one benchmark binary with JSON output into the repo root, so the
# checked-in BENCH_*.json baselines can be regenerated reproducibly:
#
#   scripts/bench_json.sh bench_parallel_matcher           # -> BENCH_matcher.json
#   scripts/bench_json.sh bench_dist_scaling dist.json     # explicit name
#   BENCH_ARGS='--benchmark_filter=Chain' scripts/bench_json.sh bench_parallel_matcher
#
# The benchmark is built in its own Release tree (build-release/), and the
# JSON's context block carries the git revision (with a -dirty suffix when
# the tree has uncommitted changes) and our build type next
# to google-benchmark's own fields (num_cpus, load, caches). That is what
# qualifies a baseline: compare timings only against baselines recorded
# on comparable hardware. (`library_build_type` in the context describes
# the google-benchmark library, not this build.)
set -euo pipefail

cd "$(dirname "$0")/.."

bench="${1:?usage: scripts/bench_json.sh <bench-target> [out.json]}"
case "$bench" in
  bench_parallel_matcher) default_out="BENCH_matcher.json" ;;
  bench_net_throughput) default_out="BENCH_net_concurrency.json" ;;
  bench_table1_relational_ops) default_out="BENCH_vectorized.json" ;;
  *) default_out="BENCH_${bench#bench_}.json" ;;
esac
out="${2:-$default_out}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j --target "$bench"

# shellcheck disable=SC2086  # BENCH_ARGS is intentionally word-split
./build-release/bench/"$bench" \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  --benchmark_context=git_sha="$(git describe --always --abbrev=40 --dirty)",build_type=Release \
  ${BENCH_ARGS:-}

echo "wrote $out"
