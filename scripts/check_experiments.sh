#!/usr/bin/env bash
# check_experiments.sh — full-scale reproduction gate (`make experiments-full`).
#
# Runs the paper-scale report (`go run ./cmd/experiments -full`) into a
# temp file and diffs it against the committed experiments_full.txt.
# Only the "[ID completed in N.Ns wall]" lines are masked, as
# TestReportGolden (internal/exp) masks them for the default report:
# every reproduced number must match. It takes about 50 s, so it stays
# out of `make check`.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

$GO run ./cmd/experiments -full >"$TMP/full.txt"

mask() { sed -E 's/^\[([A-Za-z0-9_]+) completed in [0-9.]+s wall\]$/[\1 completed in N.Ns wall]/' "$1"; }
mask experiments_full.txt >"$TMP/want.txt"
mask "$TMP/full.txt" >"$TMP/got.txt"
if ! diff -u "$TMP/want.txt" "$TMP/got.txt" >"$TMP/diff.txt"; then
  echo "experiments-full: the -full report differs from experiments_full.txt (wall times masked):"
  head -60 "$TMP/diff.txt"
  exit 1
fi
echo "experiments-full: OK ($(grep -c 'completed in N.Ns wall' "$TMP/got.txt") experiments match experiments_full.txt)"
