#!/usr/bin/env bash
# Runs a gtest binary restricted to one --gtest_filter, and fails when the
# filter selects no test. (gtest itself passes a filter that matches
# nothing, so a renamed test would silently drop out of a by-name step.)
#
#   scripts/gtest_by_name.sh ./tests/relational_test '*Vectorized*'
set -euo pipefail

bin="${1:?usage: scripts/gtest_by_name.sh <gtest-binary> <filter>}"
filter="${2:?usage: scripts/gtest_by_name.sh <gtest-binary> <filter>}"

# Test lines of --gtest_list_tests are indented; suite lines are not.
count=$("$bin" --gtest_list_tests --gtest_filter="$filter" | grep -c '^  ' || true)
if [[ "$count" -eq 0 ]]; then
  echo "error: filter '$filter' selects no test in $bin" >&2
  exit 1
fi
echo "$bin: $count tests match '$filter'"
exec "$bin" --gtest_filter="$filter"
