#!/usr/bin/env bash
# Smoke test (ctest bench_e2e_smoke): every workload at scale 200 with
# 2 s windows, timed and traced, with every output check on; then the
# compare.py self-test. Usage: smoke.sh BENCH_BINARY WORKDIR
set -euo pipefail
bin="$1"
work="$2"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for w in short_reads long_reads reads_with_ingest; do
  for t in 0 1; do
    "$bin" --workload "$w" --seed 3 --seconds 2 --trace "$t" --scale 200 \
      --warmup 0 --workdir "$work" | tail -n 1
  done
done
python3 "$here/compare.py" --self-test
