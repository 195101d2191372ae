#!/usr/bin/env bash
# Smoke-checks the per-experiment JSON the harness emits (`--json DIR`).
#
#   scripts/check_bench_json.sh [DIR]      # DIR defaults to bench-json
#
# One row per experiment: its id, the substrings its report must contain
# (`|`-separated, matched literally), and a regex that must NOT match
# (empty: none).  Every report must also name its experiment.  A failing
# self-check inside an experiment shows up as one of the forbidden labels
# in its table.
set -euo pipefail
dir="${1:-bench-json}"

# id ; required substrings ; forbidden regex
checks='
E12;partition pruning|columnar-vs-row;
E13;index access paths;
E14;"headline";TORN|MISMATCH
E15;group commit|"headline";LOST|MISMATCH
E16;late materialization|"headline"|"tuples materialized", "chunks";
E17;"headline"|join-ordering|join-elimination|groupby-elimination;
E18;"headline";MISMATCH|PROTOCOL_ERROR
'

fail=0
while IFS=';' read -r id required forbidden; do
  [ -n "$id" ] || continue
  file="$dir/BENCH_$id.json"
  if [ ! -f "$file" ]; then
    echo "$id: $file is missing" >&2
    fail=1
    continue
  fi
  IFS='|' read -r -a needles <<<"\"experiment\": \"$id\"|$required"
  for needle in "${needles[@]}"; do
    if ! grep -qF -- "$needle" "$file"; then
      echo "$id: $file lacks '$needle'" >&2
      fail=1
    fi
  done
  if [ -n "$forbidden" ] && grep -qE -- "$forbidden" "$file"; then
    echo "$id: $file reports a failed self-check ($forbidden)" >&2
    fail=1
  fi
done <<<"$checks"

# E16's aggregate row (query, rows, late µs, tuples materialized, chunks)
# must report zero materialized input tuples — the non-flaky signal that
# aggregation runs on the columns.
if ! grep -qE 'COUNT\(\*\), SUM\(id\) FROM wide", "1", "[0-9.]+", "0", "[1-9]' "$dir/BENCH_E16.json"; then
  echo "E16: the aggregate row does not report 0 materialized inputs" >&2
  fail=1
fi
exit $fail
