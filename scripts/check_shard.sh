#!/usr/bin/env bash
# check_shard.sh — sharded-backend smoke gate (`make shard-smoke`).
#
# Asserts, from outside the process, the two properties the sharded
# engine promises:
#   1. Parity: at S ∈ {1, 2, 7} the sharded plan's full output
#      (multiprefix + reductions) is bit-identical to the serial
#      backend on the same input — Definition 1 order preserved across
#      the shard carry exchange.
#   2. Round efficiency: the carry exchange runs exactly ⌈log₂S⌉
#      barrier rounds — measured_rounds (counted at runtime by worker
#      0) equals the rounds bound the plan computed, not the S−1 a
#      sequential carry walk would cost.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

$GO build -o "$BIN/mp" ./cmd/mp

# Input: 5000 elements over 13 labels, values cycling through a range
# with sign flips — enough elements that every shard count in the
# matrix gets multi-element shards and every label crosses shards.
awk 'BEGIN { for (i = 0; i < 5000; i++) print (i * 7) % 13, (i % 23) - 11 }' >"$BIN/input.txt"

"$BIN/mp" -backend serial <"$BIN/input.txt" >"$BIN/serial.out"

# 1 + 2. Parity and asserted round count at S ∈ {1, 2, 7}
# (⌈log₂S⌉ = 0, 1, 3).
for spec in "1 0" "2 1" "7 3"; do
  S=${spec% *}; WANT=${spec#* }
  "$BIN/mp" -shards "$S" <"$BIN/input.txt" >"$BIN/sharded.out" 2>"$BIN/sharded.err"
  if ! cmp -s "$BIN/serial.out" "$BIN/sharded.out"; then
    echo "shard-smoke: S=$S output differs from serial"
    diff "$BIN/serial.out" "$BIN/sharded.out" | head -20
    exit 1
  fi
  get() { awk -v k="$1" '$1 == "mp:" && $2 == k { print $3 }' "$BIN/sharded.err"; }
  ROUNDS=$(get rounds)
  MEASURED=$(get measured_rounds)
  if [ "$ROUNDS" != "$WANT" ]; then
    echo "shard-smoke: S=$S rounds=$ROUNDS, want ceil(log2 S)=$WANT"; cat "$BIN/sharded.err"; exit 1
  fi
  if [ "$MEASURED" != "$WANT" ]; then
    echo "shard-smoke: S=$S measured_rounds=$MEASURED, want $WANT"; cat "$BIN/sharded.err"; exit 1
  fi
done

echo "shard-smoke: ok (parity at S=1,2,7; rounds = ceil(log2 S))"
