#!/usr/bin/env bash
# Checks the exact facts in the per-experiment JSON the harness emits at
# scale 200 (`harness 200 --json DIR`).
#
#   scripts/check_bench_json.sh [DIR]      # DIR defaults to bench-json
#
# One pin per line below: an experiment id and a literal substring that one
# line of its `BENCH_<ID>.json` must contain.  Each pin is a table row; `…`
# stands for any text and skips the row's timing cells, which are printed
# for information and never checked.  Every report must also name its
# experiment and the scale the pins were taken at.
set -euo pipefail
dir="${1:-bench-json}"

# Whether some line of file $2 holds pin $1, with `…` matching any text.
has() {
  PIN="$1" awk '
    BEGIN { k = split(ENVIRON["PIN"], part, "…") }
    {
      rest = $0
      for (i = 1; i <= k; i++) {
        if (part[i] == "") continue
        at = index(rest, part[i])
        if (!at) next
        rest = substr(rest, at + length(part[i]))
      }
      found = 1
      exit
    }
    END { exit !found }' "$2"
}

fail=0
check() {
  if ! has "$2" "$dir/BENCH_$1.json"; then
    echo "$1: $dir/BENCH_$1.json lacks $2" >&2
    fail=1
  fi
}

for id in E12 E13 E14 E15 E16 E17; do
  check "$id" "\"experiment\": \"$id\""
  check "$id" '"scale": 200,'
done

while read -r id pin; do
  [ -n "$id" ] && check "$id" "$pin"
done <<'PINS'
E12 ["200", "4", "SELECT * FROM wide WHERE kind = 'k0'", "1/4", "50", "…"]
E12 ["200", "4", "SELECT * FROM wide GUARD v1", "1/4", "50", "…"]
E12 ["200", "4", "SELECT COUNT(*) FROM wide WHERE id >= 0 GUARD v1", "1/4", "1", "…"]
E12 ["200", "4", "SELECT COUNT(*), SUM(id) FROM wide WHERE id >= 0 GUARD v1", "1/4", "1", "…"]
E12 ["200", "8", "SELECT * FROM wide WHERE kind = 'k0'", "1/8", "25", "…"]
E12 ["200", "8", "SELECT * FROM wide GUARD v1", "1/8", "25", "…"]
E12 ["200", "8", "SELECT COUNT(*) FROM wide WHERE id >= 0 GUARD v1", "1/8", "1", "…"]
E12 ["200", "8", "SELECT COUNT(*), SUM(id) FROM wide WHERE id >= 0 GUARD v1", "1/8", "1", "…"]
E12 ["200", "16", "SELECT * FROM wide WHERE kind = 'k0'", "1/16", "13", "…"]
E12 ["200", "16", "SELECT * FROM wide GUARD v1", "1/16", "13", "…"]
E12 ["200", "16", "SELECT COUNT(*) FROM wide WHERE id >= 0 GUARD v1", "1/16", "1", "…"]
E12 ["200", "16", "SELECT COUNT(*), SUM(id) FROM wide WHERE id >= 0 GUARD v1", "1/16", "1", "…"]
E12 ["200", "8", "columnar-vs-row: kind = 'k0'", "8/8", "25", "…"]
E12 ["200", "8", "columnar-vs-row: id >= n/2", "8/8", "100", "…"]
E13 ["200", "0.0", "id = <mid> (point)", "IndexLookup (unique fd key)", "1", "…"]
E13 ["200", "0.0", "kind = 'k0' (determinant)", "pruned Scan (IndexLookup priced out)", "25", "…"]
E13 ["200", "0.0", "ids(16) ⋈ wide", "IndexNestedLoopRight", "16", "…"]
E13 ["200", "1.0", "id = <mid> (point)", "IndexLookup (unique fd key)", "1", "…"]
E13 ["200", "1.0", "kind = 'k0' (determinant)", "pruned Scan (IndexLookup priced out)", "74", "…"]
E13 ["200", "1.0", "ids(16) ⋈ wide", "IndexNestedLoopRight", "16", "…"]
E14 ["mixed-rw", "2w+2r", "248", "6", "…", "0", "ok"]
E15 ["commit per-fsync", "4", "200", "…", "1000.0", "ok"]
E15 ["commit group", "4", "200", "…", "ok"]
E15 ["recovery wal-tail", "-", "200 replayed", "…", "-", "ok"]
E15 ["recovery checkpoint+tail", "-", "20 replayed", "…", "-", "ok"]
E16 ["200", "SELECT * FROM wide WHERE kind = 'k0'", "25", "…", "25", "1"]
E16 ["200", "SELECT id, v0 FROM wide WHERE kind = 'k0'", "25", "…", "25", "1"]
E16 ["200", "SELECT * FROM wide GUARD v1 (naive plan)", "25", "…", "25", "8"]
E16 ["200", "wide JOIN pick (indexed, 2 keys)", "2", "…", "4", "1"]
E16 ["200", "wide_nx JOIN pick (hash, 2 keys)", "2", "…", "4", "9"]
E16 ["200", "SELECT COUNT(*), SUM(id) FROM wide", "1", "…", "0", "8"]
E16 ["200", "SELECT kind, COUNT(*) FROM wide GROUP BY kind", "8", "…", "0", "8"]
E17 ["50", "3-way join", "32", "…", "join-ordering"]
E17 ["100", "3-way join", "32", "…", "join-ordering"]
E17 ["200", "3-way join", "32", "…", "join-ordering"]
E17 ["200", "self-join", "115", "…", "join-elimination"]
E17 ["200", "group-by", "200", "…", "groupby-elimination"]
PINS
exit $fail
