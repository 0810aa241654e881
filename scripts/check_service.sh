#!/usr/bin/env bash
# check_service.sh — service-layer smoke gate (`make check-service`).
#
# Asserts that mpd refuses an unserved default backend (-backend
# sorted) before it listens, naming the served set; then boots mpd on a
# random loopback port with chaos armed and asserts the whole ladder
# from outside the process:
#   1. readiness turns 200,
#   2. a smoke multiprefix request answers correctly,
#   3. a chaos-panicked request is still answered (degradation ladder:
#      200 + "fallback":"serial") on the entry's own plan: the cache
#      still holds one plan afterwards,
#   4. a malformed request gets a typed 400, data after the JSON value
#      a typed 400, and a body over -max-body a typed 413 even when its
#      JSON value ends inside the limit,
#   5. stateful plans work end to end: bind resident values over
#      /v1/update, point-update, pinned /v1/query reads the maintained
#      answer, a stale pin is rejected 409 version_conflict, and
#      /metrics exposes the counters in Prometheus text format, the
#      cached plans' bytes among them,
#   6. draining rejects new work with 503 + Retry-After while SIGTERM
#      exits cleanly with zero dropped in-flight requests,
#   7. the drain persisted the plan key set (-warm) and a second boot
#      pre-builds exactly its one plan before readiness,
#   8. profiles (-pprof) answer on their own listener only: the service
#      port answers 404 on /debug/pprof/,
#   9. the startup line names the integer codec: codec=avx2 where
#      /proc/cpuinfo lists the AVX2, BMI1 and BMI2 the amd64 kernels
#      use, codec=go elsewhere and in a -tags purego build,
#  10. an auto plan runs its trial at its 4th cache hit, not on its
#      miss: on an mpd with -workers 2, so that the trial runs on any
#      host, a fresh n=4096 label vector posted 4 times leaves
#      /v1/stats' auto_trials at 0, the 5th post moves it to 1, and the
#      five answers are byte-identical,
# and that mpload fails a mix in which no request succeeds (-backend
# sorted, which the service refuses), naming the mix, the status and
# the error kind.
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
BIN=$(mktemp -d)
MPD_PID=
trap 'kill "$MPD_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

$GO build -o "$BIN/mpd" ./cmd/mpd
$GO build -o "$BIN/mpd-purego" -tags purego ./cmd/mpd
$GO build -o "$BIN/mpload" ./cmd/mpload

# A default backend outside the served set would fail every request
# that names none, so mpd must exit non-zero before it listens. The
# timeout ends an mpd that wrongly starts serving.
if timeout 10 "$BIN/mpd" -addr 127.0.0.1:0 -backend sorted >"$BIN/refuse.log" 2>&1; then
  echo "check-service: mpd -backend sorted exited 0"; cat "$BIN/refuse.log"; exit 1
fi
if grep -q "serving on" "$BIN/refuse.log" || ! grep -q "want one of auto, serial, chunked" "$BIN/refuse.log"; then
  echo "check-service: mpd -backend sorted: want a refusal naming the served set before listening"
  cat "$BIN/refuse.log"; exit 1
fi

# A load run in which no request succeeds must fail, and say why.
if "$BIN/mpload" -backend sorted -dur 1s -n 1024 -m 16 -mix reduce -o "$BIN/load.json" 2>"$BIN/load.log"; then
  echo "check-service: mpload exited 0 with no request ok"; cat "$BIN/load.log"; exit 1
fi
if ! grep -q "mix reduce: 0 of [0-9]* requests ok; first error: HTTP 400, error.kind unknown_backend" "$BIN/load.log"; then
  echo "check-service: mpload's failure does not name the mix, status and kind"; cat "$BIN/load.log"; exit 1
fi

PORT=$((20000 + RANDOM % 20000))
PPROF_PORT=$((PORT + 1))
URL="http://127.0.0.1:$PORT"
# panic=2: every second request hits an engine panic, so the ladder is
# exercised by the smoke traffic itself. -max-body 4096 is small enough
# for the oversized-body check below and large enough for the rest.
"$BIN/mpd" -addr "127.0.0.1:$PORT" -backend chunked -chaos "panic=2,seed=9" \
  -max-body 4096 -warm "$BIN/warm.json" -pprof "127.0.0.1:$PPROF_PORT" >"$BIN/mpd.log" 2>&1 &
MPD_PID=$!

for i in $(seq 1 100); do
  if curl -sf "$URL/readyz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$MPD_PID" 2>/dev/null; then
    echo "check-service: mpd died on startup"; cat "$BIN/mpd.log"; exit 1
  fi
  sleep 0.1
done
curl -sf "$URL/readyz" >/dev/null || { echo "check-service: never ready"; exit 1; }

# The startup line names the codec the CPU runs.
WANT_CODEC=go
if [ "$($GO env GOARCH)" = amd64 ] && [ -r /proc/cpuinfo ]; then
  FLAGS=$(grep -m1 '^flags' /proc/cpuinfo)
  WANT_CODEC=avx2
  for f in avx2 bmi1 bmi2; do
    case " $FLAGS " in *" $f "*) ;; *) WANT_CODEC=go ;; esac
  done
fi
grep -q "serving on 127.0.0.1:$PORT (backend=chunked, codec=$WANT_CODEC)" "$BIN/mpd.log" ||
  { echo "check-service: startup line does not name codec=$WANT_CODEC"; cat "$BIN/mpd.log"; exit 1; }

# Profiles answer on the -pprof listener, never on the service port.
curl -sf "http://127.0.0.1:$PPROF_PORT/debug/pprof/" | grep -q goroutine ||
  { echo "check-service: no profile index on the -pprof listener"; cat "$BIN/mpd.log"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$URL/debug/pprof/")
if [ "$CODE" != 404 ]; then
  echo "check-service: the service port answers $CODE on /debug/pprof/, want 404"; exit 1
fi

BODY='{"op":"sum","m":2,"labels":[0,1,0,1,0],"values":[1,2,3,4,5]}'
WANT_MULTI='[0,0,1,2,4]'

# Smoke + chaos: with panic=2, four requests guarantee both a clean
# pass and a ladder pass; each must return the same correct answer.
SAW_FALLBACK=0
for i in 1 2 3 4; do
  RESP=$(curl -sf -X POST "$URL/v1/multiprefix" -d "$BODY")
  GOT=$(echo "$RESP" | jq -c .multi)
  if [ "$GOT" != "$WANT_MULTI" ]; then
    echo "check-service: wrong answer: $RESP"; exit 1
  fi
  if [ "$(echo "$RESP" | jq -r .fallback)" = "serial" ]; then SAW_FALLBACK=1; fi
done
if [ "$SAW_FALLBACK" != 1 ]; then
  echo "check-service: chaos panic never walked the ladder"; exit 1
fi
FB=$(curl -sf "$URL/v1/stats" | jq .serial_fallbacks)
if [ "$FB" -lt 1 ]; then
  echo "check-service: stats report no serial fallbacks"; exit 1
fi
# The serial rung runs on the entry's own plan: it builds no second one.
PLANS=$(curl -sf "$URL/v1/stats" | jq .cache_plans)
if [ "$PLANS" != 1 ]; then
  echo "check-service: $PLANS cached plans after the chaos loop, want 1"; exit 1
fi

# Typed rejection.
CODE=$(curl -s -o "$BIN/err.json" -w '%{http_code}' -X POST "$URL/v1/multiprefix" \
  -d '{"op":"median","m":2,"labels":[0],"values":[1]}')
if [ "$CODE" != 400 ] || [ "$(jq -r .error.kind "$BIN/err.json")" != bad_input ]; then
  echo "check-service: bad op not rejected typed (code $CODE)"; exit 1
fi
CODE=$(curl -s -o "$BIN/trail.json" -w '%{http_code}' -X POST "$URL/v1/multiprefix" \
  --data-binary "$BODY{\"x\":")
if [ "$CODE" != 400 ] || [ "$(jq -r .error.kind "$BIN/trail.json")" != bad_input ]; then
  echo "check-service: data after the JSON value not rejected typed (code $CODE)"; exit 1
fi
# Labels that do not check: one at m, a negative one, and 2^31, which
# the int32 label parse refuses so that json.Unmarshal decodes the
# body. Each is the typed 400 of a label outside [0, m).
for LABELS in '[0,1,2]' '[0,-1,0]' '[0,2147483648,0]'; do
  CODE=$(curl -s -o "$BIN/label.json" -w '%{http_code}' -X POST "$URL/v1/multiprefix" \
    -d "{\"op\":\"sum\",\"m\":2,\"labels\":$LABELS,\"values\":[1,2,3]}")
  if [ "$CODE" != 400 ] || [ "$(jq -r .error.kind "$BIN/label.json")" != bad_input ] ||
    ! jq -r .error.message "$BIN/label.json" | grep -q 'outside \[0, 2)$'; then
    echo "check-service: labels $LABELS not rejected typed (code $CODE)"; cat "$BIN/label.json"; exit 1
  fi
done
{ printf '%s' "$BODY"; head -c 8192 /dev/zero | tr '\0' ' '; } >"$BIN/big.json"
CODE=$(curl -s -o "$BIN/big.out" -w '%{http_code}' -X POST "$URL/v1/multiprefix" \
  --data-binary @"$BIN/big.json")
if [ "$CODE" != 413 ] || [ "$(jq -r .error.kind "$BIN/big.out")" != payload_too_large ]; then
  echo "check-service: body over -max-body not rejected typed (code $CODE)"; exit 1
fi

# Stateful plans: bind resident values, point-update, then a query
# pinned to the returned version must read the maintained answer; a
# stale pin must be rejected typed.
VER=$(curl -sf -X POST "$URL/v1/update" -d "$BODY" | jq .version)
if [ "$VER" -lt 1 ]; then
  echo "check-service: bind returned version $VER"; exit 1
fi
VER2=$(curl -sf -X POST "$URL/v1/update" \
  -d '{"op":"sum","m":2,"labels":[0,1,0,1,0],"updates":[{"i":0,"v":9}]}' | jq .version)
QRESP=$(curl -sf -X POST "$URL/v1/query" -d "{\"op\":\"sum\",\"m\":2,\"labels\":[0,1,0,1,0],\"indices\":[4],\"reduce_labels\":[0],\"pin_version\":$VER2}")
# values [1,2,3,4,5] with element 0 updated to 9: label-0 prefix at
# i=4 is 9+3=12, label-0 reduction 9+3+5=17.
if [ "$(echo "$QRESP" | jq -c .prefix)" != '[12]' ] ||
   [ "$(echo "$QRESP" | jq -c .reduce)" != '[17]' ]; then
  echo "check-service: stateful query wrong: $QRESP"; exit 1
fi
CODE=$(curl -s -o "$BIN/pin.json" -w '%{http_code}' -X POST "$URL/v1/query" \
  -d '{"op":"sum","m":2,"labels":[0,1,0,1,0],"indices":[4],"pin_version":1}')
if [ "$CODE" != 409 ] || [ "$(jq -r .error.kind "$BIN/pin.json")" != version_conflict ]; then
  echo "check-service: stale pin not rejected typed (code $CODE)"; exit 1
fi
curl -sf "$URL/metrics" >"$BIN/metrics.txt"
grep -q '^mp_updates_applied_total 1$' "$BIN/metrics.txt" ||
  { echo "check-service: /metrics missing updates counter"; exit 1; }
grep -q '^mp_bound_plans 1$' "$BIN/metrics.txt" ||
  { echo "check-service: /metrics missing bound-plans gauge"; exit 1; }
grep -Eq '^mp_plan_cache_bytes [1-9][0-9]*$' "$BIN/metrics.txt" ||
  { echo "check-service: /metrics missing a positive plan-cache bytes gauge"; exit 1; }

# Drain: SIGTERM, then new work must see 503 (draining) or connection
# refused (listener closed) — never a hang or a 5xx crash page.
kill -TERM "$MPD_PID"
sleep 0.2
CODE=$(curl -s -o "$BIN/drain.json" -w '%{http_code}' --max-time 5 \
  -X POST "$URL/v1/multiprefix" -d "$BODY" || true)
case "$CODE" in
  503)
    KIND=$(jq -r .error.kind "$BIN/drain.json")
    [ "$KIND" = draining ] || { echo "check-service: drain kind $KIND"; exit 1; } ;;
  000|"") ;; # listener already down: also a clean drain
  *) echo "check-service: unexpected status $CODE during drain"; exit 1 ;;
esac

for i in $(seq 1 100); do
  kill -0 "$MPD_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$MPD_PID" 2>/dev/null; then
  echo "check-service: mpd did not exit after SIGTERM"; cat "$BIN/mpd.log"; exit 1
fi
wait "$MPD_PID" || { echo "check-service: mpd exited nonzero"; cat "$BIN/mpd.log"; exit 1; }
grep -q "drained:" "$BIN/mpd.log" || { echo "check-service: no drain summary"; cat "$BIN/mpd.log"; exit 1; }

# Warm round-trip: the drain must have persisted the plan key set, and
# a second boot must pre-build it before turning ready.
[ -s "$BIN/warm.json" ] || { echo "check-service: drain left no warm file"; exit 1; }
"$BIN/mpd" -addr "127.0.0.1:$PORT" -backend chunked -warm "$BIN/warm.json" \
  >"$BIN/mpd2.log" 2>&1 &
MPD_PID=$!
for i in $(seq 1 100); do
  if curl -sf "$URL/readyz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$MPD_PID" 2>/dev/null; then
    echo "check-service: warmed mpd died on startup"; cat "$BIN/mpd2.log"; exit 1
  fi
  sleep 0.1
done
WARMED=$(curl -sf "$URL/v1/stats" | jq .warmed_plans)
if [ "$WARMED" != 1 ]; then
  echo "check-service: second boot warmed $WARMED plans, want 1"; cat "$BIN/mpd2.log"; exit 1
fi
kill -TERM "$MPD_PID"
for i in $(seq 1 100); do
  kill -0 "$MPD_PID" 2>/dev/null || break
  sleep 0.1
done
wait "$MPD_PID" || { echo "check-service: warmed mpd exited nonzero"; cat "$BIN/mpd2.log"; exit 1; }

# Promotion: a cold auto request runs the rule's engine, and the
# request that makes the plan's 4th cache hit runs the trial.
"$BIN/mpd" -addr "127.0.0.1:$PORT" -workers 2 >"$BIN/mpd3.log" 2>&1 &
MPD_PID=$!
for i in $(seq 1 100); do
  if curl -sf "$URL/readyz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$MPD_PID" 2>/dev/null; then
    echo "check-service: mpd -workers 2 died on startup"; cat "$BIN/mpd3.log"; exit 1
  fi
  sleep 0.1
done
awk 'BEGIN { n = 4096; printf "{\"op\":\"sum\",\"m\":64,\"labels\":[";
  for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), (i * 7 + int(i / 64)) % 64;
  printf "],\"values\":[";
  for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), i % 13 - 4;
  printf "]}" }' >"$BIN/fresh.json"
for i in 1 2 3 4 5; do
  curl -sf -X POST "$URL/v1/multiprefix" --data-binary @"$BIN/fresh.json" >"$BIN/fresh.$i.out" ||
    { echo "check-service: fresh vector post $i failed"; cat "$BIN/mpd3.log"; exit 1; }
  TRIALS=$(curl -sf "$URL/v1/stats" | jq .auto_trials)
  WANT_TRIALS=0
  [ "$i" = 5 ] && WANT_TRIALS=1
  if [ "$TRIALS" != "$WANT_TRIALS" ]; then
    echo "check-service: auto_trials $TRIALS after post $i of a fresh vector, want $WANT_TRIALS"; exit 1
  fi
  cmp -s "$BIN/fresh.1.out" "$BIN/fresh.$i.out" ||
    { echo "check-service: post $i of the fresh vector answered unlike post 1"; exit 1; }
done
# A fresh vector of the service benchmark's shape, posted twice: the
# miss parses its labels straight into the plan's int32 vector, the hit
# finds the plan by the labels' text, and both answer the same bytes.
awk 'BEGIN { n = 65536; printf "{\"op\":\"sum\",\"m\":256,\"labels\":[";
  for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), (i * 37 + int(i / 256)) % 256;
  printf "],\"values\":[";
  for (i = 0; i < n; i++) printf "%s%d", (i ? "," : ""), (i * 7919) % 2001 - 1000;
  printf "]}" }' >"$BIN/cold.json"
for i in 1 2; do
  curl -sf -X POST "$URL/v1/multiprefix" --data-binary @"$BIN/cold.json" >"$BIN/cold.$i.out" ||
    { echo "check-service: cold vector post $i failed"; cat "$BIN/mpd3.log"; exit 1; }
done
[ "$(jq '.multi | length' "$BIN/cold.1.out")" = 65536 ] ||
  { echo "check-service: the cold vector's answer has no 65536 prefixes"; exit 1; }
cmp -s "$BIN/cold.1.out" "$BIN/cold.2.out" ||
  { echo "check-service: the cold and the warm post of a fresh vector answered unlike"; exit 1; }
curl -sf "$URL/metrics" >"$BIN/metrics3.txt"
grep -q '^mp_auto_trials_total 1$' "$BIN/metrics3.txt" ||
  { echo "check-service: /metrics does not count the trial"; cat "$BIN/metrics3.txt"; exit 1; }
kill -TERM "$MPD_PID"
wait "$MPD_PID" || { echo "check-service: mpd -workers 2 exited nonzero"; cat "$BIN/mpd3.log"; exit 1; }

# A purego build runs the Go loops whatever the CPU, and says so.
"$BIN/mpd-purego" -addr 127.0.0.1:0 >"$BIN/purego.log" 2>&1 &
MPD_PID=$!
for i in $(seq 1 100); do
  grep -q "serving on" "$BIN/purego.log" && break
  sleep 0.1
done
kill -TERM "$MPD_PID"
wait "$MPD_PID" || true
grep -q "serving on .* (backend=auto, codec=go)" "$BIN/purego.log" ||
  { echo "check-service: the purego build does not name codec=go"; cat "$BIN/purego.log"; exit 1; }

echo "check-service: ok (codec=$WANT_CODEC, purego codec=go, mpload failure, pprof apart, smoke, chaos ladder on one plan, typed errors, label range errors, stateful plans, metrics, drain, warm, trial at the 4th hit, cold and warm alike)"
