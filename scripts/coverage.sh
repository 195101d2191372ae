#!/usr/bin/env bash
# Line-coverage gate for crates/query and crates/server.
#
# Uses rustc's built-in `-C instrument-coverage` plus the `llvm-tools`
# rustup component (llvm-profdata / llvm-cov) — no external coverage
# crates required.  The committed floor below is the regression gate: CI
# fails when the measured line coverage of crates/query/src plus
# crates/server/src drops under it.  Raise the floor when coverage
# genuinely improves; never lower it to make a PR pass.
#
#   scripts/coverage.sh              # report + gate (skips if no llvm-tools)
#   COVERAGE_REQUIRE=1 scripts/coverage.sh   # missing llvm-tools is an error (CI)
#   COVERAGE_FLOOR=80 scripts/coverage.sh    # override the floor
set -euo pipefail
cd "$(dirname "$0")/.."

# The committed floor (percent of lines in crates/query/src and
# crates/server/src covered by their test suites).  Deliberately
# conservative for the first commit; ratchet it up to just under the
# measured value once CI has reported a few runs.
FLOOR="${COVERAGE_FLOOR:-60}"

sysroot="$(rustc --print sysroot)"
tooldir=""
for cand in "$sysroot"/lib/rustlib/*/bin; do
  if [ -x "$cand/llvm-profdata" ] && [ -x "$cand/llvm-cov" ]; then
    tooldir="$cand"
    break
  fi
done
if [ -z "$tooldir" ]; then
  if command -v llvm-profdata >/dev/null 2>&1 && command -v llvm-cov >/dev/null 2>&1; then
    tooldir="$(dirname "$(command -v llvm-profdata)")"
  fi
fi
skip_or_fail() {
  echo "coverage: $1" >&2
  echo "coverage: install matching tools with \`rustup component add llvm-tools\`." >&2
  if [ "${COVERAGE_REQUIRE:-0}" = "1" ]; then
    exit 1
  fi
  echo "coverage: skipping the gate (COVERAGE_REQUIRE not set)." >&2
  exit 0
}

if [ -z "$tooldir" ]; then
  skip_or_fail "llvm-profdata/llvm-cov not found."
fi

profdir="target/coverage"
rm -rf "$profdir"
mkdir -p "$profdir"

# Instrumented test run.  A dedicated target dir keeps the instrumented
# artifacts from invalidating the regular build cache.
export CARGO_TARGET_DIR="target/coverage-build"
export RUSTFLAGS="-C instrument-coverage"
export LLVM_PROFILE_FILE="$PWD/$profdir/flexrel-%p-%m.profraw"
cargo test -p flexrel-query -q
# crates/server has no unit tests of its own; its coverage comes from the
# cross-crate wire-protocol suite (codec proptests + live-server
# conversations).
cargo test -p flexrel-tests --test wire_protocol -q

# A version-mismatched llvm-profdata (e.g. a system LLVM older than the
# one rustc instruments with) cannot read the profraw format — treat it
# exactly like a missing tool.
if ! "$tooldir/llvm-profdata" merge -sparse "$profdir"/*.profraw \
  -o "$profdir/query.profdata" 2>"$profdir/merge.err"; then
  cat "$profdir/merge.err" >&2
  skip_or_fail "llvm-profdata in $tooldir cannot read rustc's profile format."
fi

# The test binaries of the instrumented run (unit tests + doctest hosts are
# not needed; the lib test binary carries the crate's coverage).
objects=""
while IFS= read -r exe; do
  [ -n "$exe" ] && [ "$exe" != "null" ] && objects="$objects --object $exe"
done < <(cargo test -p flexrel-query -q --no-run --message-format=json 2>/dev/null |
  sed -n 's/.*"executable":"\([^"]*\)".*/\1/p')
if [ -z "$objects" ]; then
  echo "coverage: no instrumented test binaries found" >&2
  exit 1
fi

# src/bin/ holds the server's CLI entry point, exercised by the spawned-
# binary test crates/server/tests/binary.rs rather than the instrumented
# suite — keep it out of the line count.
report="$("$tooldir/llvm-cov" report $objects \
  --instr-profile "$profdir/query.profdata" \
  --ignore-filename-regex '(registry|toolchains|vendor|/tests/|/src/bin/)' \
  "$PWD"/crates/query/src "$PWD"/crates/server/src)"
echo "$report"

# The optimizer-v2 module is measured as part of crates/query/src; a
# filter regression that silently dropped it would let the rewrite rules'
# coverage rot unnoticed, so require its files in the report.
if ! echo "$report" | grep -q 'optimizer'; then
  echo "coverage: optimizer/ files missing from the llvm-cov report" >&2
  exit 1
fi

# Same guard for the network front end: the wire codec and session loop
# must stay in the measured set.
if ! echo "$report" | grep -q 'proto.rs'; then
  echo "coverage: crates/server files missing from the llvm-cov report" >&2
  exit 1
fi

pct="$(echo "$report" | awk '/^TOTAL/ {gsub(/%/, "", $10); print $10}')"
if [ -z "$pct" ]; then
  echo "coverage: could not parse the TOTAL line from llvm-cov" >&2
  exit 1
fi
echo "coverage: crates/query + crates/server line coverage ${pct}% (floor ${FLOOR}%)"
awk -v pct="$pct" -v floor="$FLOOR" 'BEGIN { exit !(pct + 0 >= floor + 0) }' || {
  echo "coverage: FAILED — ${pct}% is under the committed ${FLOOR}% floor" >&2
  exit 1
}
