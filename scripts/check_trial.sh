#!/usr/bin/env bash
# check_trial.sh — auto plan trial smoke gate (`make trial-smoke`).
#
# Asserts the build-time trial behind an auto plan's engine choice, on
# a generated n=2^16, m=256 input driven through mp's stateful plan
# path (-update):
#   1. `mp -v` prints the trial record — both candidates' medians and
#      pick ∈ {serial, chunked} — and the whole run finishes inside the
#      2 s budget,
#   2. its stdout is byte-identical to the same run with -backend serial
#      and with -backend chunked.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

$GO build -o "$BIN/mp" ./cmd/mp

# n=2^16 "label value" lines, m=256, from a fixed LCG.
awk 'BEGIN { x = 12345; for (i = 0; i < 65536; i++) {
  x = (x * 1103515245 + 12345) % 2147483648; l = int(x / 65536) % 256
  x = (x * 1103515245 + 12345) % 2147483648; v = int(x / 65536) % 2001 - 1000
  print l, v } }' >"$BIN/in.txt"
UPDATES="0=7,65535=-3,4096=11"

# 1. The trial, timed. date +%s%N is GNU coreutils, present on the CI
# image; the 2 s budget is ~20x the trial plus input parsing.
START=$(date +%s%N)
"$BIN/mp" -v -update "$UPDATES" <"$BIN/in.txt" >"$BIN/auto.out" 2>"$BIN/auto.err"
ELAPSED_MS=$(( ($(date +%s%N) - START) / 1000000 ))
if [ "$ELAPSED_MS" -gt 2000 ]; then
  echo "trial-smoke: auto run took ${ELAPSED_MS}ms (budget 2000ms)"; exit 1
fi
TRIAL=$(grep '^mp: auto trial ' "$BIN/auto.err" || true)
if ! echo "$TRIAL" | grep -Eq 'serial=[0-9][^ ]*s chunked=[0-9][^ ]*s pick=(serial|chunked) '; then
  echo "trial-smoke: no trial record with both medians and a serial/chunked pick"; cat "$BIN/auto.err"; exit 1
fi
PICK=$(echo "$TRIAL" | sed -E 's/.* pick=([a-z]+) .*/\1/')

# 2. The answer does not depend on the pick.
for engine in serial chunked; do
  "$BIN/mp" -v -backend "$engine" -update "$UPDATES" <"$BIN/in.txt" >"$BIN/$engine.out" 2>"$BIN/$engine.err"
  cmp -s "$BIN/auto.out" "$BIN/$engine.out" || {
    echo "trial-smoke: auto stdout differs from -backend $engine"; exit 1
  }
done

echo "trial-smoke: ok (${ELAPSED_MS}ms, pick ${PICK}; ${TRIAL#mp: auto trial })"
