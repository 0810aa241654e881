# Build and verification entry points. `make check` is the tier-1+
# verify command: everything tier-1 runs (build + tests) plus vet, the
# race detector on the concurrent packages, and a short fuzz smoke of
# the root fuzz targets plus the backend's plan, sorted, batch,
# incremental and sharded parity targets, the server's wire-decoder
# parity target, its integer-codec target and its body-to-response
# target.

GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test check check-service trial-smoke shard-smoke experiments-full vet lint race race-matrix fuzz-smoke purego bench bench-smoke bench-json bench-service

all: build test

build:
	$(GO) build ./...

# Tier-1: what every change must keep green.
test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: go vet plus the project analyzer suite
# (cmd/mplint: hotpathalloc, barrierdiscipline, lockdiscipline,
# terminalerr, ctxpoll) and a best-effort govulncheck. Fails on any
# non-suppressed diagnostic; suppressions require //mp:nolint <reason>.
lint:
	bash ./scripts/check_lint.sh

race:
	$(GO) test -race ./...

# Focused race pass over the engine suites: the backend and core
# packages (worker teams, batch barriers, the carry exchange) plus the
# server's stateful-plan traffic (concurrent update/query/run/evict)
# re-run under the race detector with fresh scheduling (-count=2) — a
# small size matrix lives in the tests themselves (worker counts 1..8
# × the carry-edge label shapes) — the plan cache's label-text index
# under concurrent lookups, stores and evictions, the coalescer's
# group commit (inline rounds, queues behind a held round, drain), and
# the reuse of pooled request vectors (batch calls write no destination
# once they return; early exits hand vectors back only once unused),
# concurrent first use of a plan's lazily allocated result storage, the
# cache's collision check against a building entry, the serial rung on
# an entry's own plan, and an auto plan's switch of engine in place
# (Promote) and its trial at the 4th cache hit under concurrent compute
# and update traffic; and the cold path: label sets (one pass to check,
# narrow, count and digest) and their errors, the four-lane digest, a
# miss's allocations and typed label errors, and the body buffer's
# growth; and the request buffers' free lists shared by every P (a
# buffer released on one goroutine is the next another takes, a burst
# leaves no list past its bound) with the allocation pins that rely on
# them: the warm compute routes, the codec and a /v1/query hit.
race-matrix:
	$(GO) test -race -count=2 -run 'Sorted|Sharded|Batch|Chunk|Plan|Update|Incremental|PanicInjection|PooledEngines|LabelWidth|Promote|LabelSet|Digest' ./internal/backend ./internal/core
	$(GO) test -race -count=2 -run 'Update|Query|Warm|Metrics|Eviction|Stateful|TextIndex|ServeCompute|OverLimit|Coalesc|Drain|Batch|SoloRound|VectorReuse|Collision|EntryBytes|SerialRung|Promote|AutoTrial|Cold|ReadBody|ChunkedBody|FreeList|WireAllocs' ./internal/server

# Each fuzz target runs briefly from its seed corpus plus FUZZTIME of
# random inputs; failures minimize and persist under testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEnginesAgree$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAutoMatchesSerial$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzRankIsStableSort$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentedScan$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzBackendParity$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzPlanParity$$' -fuzztime $(FUZZTIME) ./internal/backend
	$(GO) test -run '^$$' -fuzz '^FuzzSortedParity$$' -fuzztime $(FUZZTIME) ./internal/backend
	$(GO) test -run '^$$' -fuzz '^FuzzBatchParity$$' -fuzztime $(FUZZTIME) ./internal/backend
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalParity$$' -fuzztime $(FUZZTIME) ./internal/backend
	$(GO) test -run '^$$' -fuzz '^FuzzShardedParity$$' -fuzztime $(FUZZTIME) ./internal/backend
	$(GO) test -run '^$$' -fuzz '^FuzzComputeDecodeParity$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzIntCodec$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzServeCompute$$' -fuzztime $(FUZZTIME) ./internal/server

# The integer codec's portable path: the purego build tag leaves out
# the amd64 kernels (internal/server/codec_amd64.s), so the server suite
# and the codec's fuzz smokes run on the SWAR Go loops alone, the int32
# label parse of a miss included.
purego:
	$(GO) test -tags purego ./internal/server
	$(GO) test -tags purego -run '^$$' -fuzz '^FuzzIntCodec$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -tags purego -run '^$$' -fuzz '^FuzzComputeDecodeParity$$' -fuzztime $(FUZZTIME) ./internal/server

# Tier-1+: the full robustness gate: lint (vet + the mplint analyzer
# suite), race, fuzz smoke, the purego pass, a one-iteration pass over every benchmark
# so a broken benchmark cannot land silently, and the out-of-process
# service smoke (boot mpd, chaos request, drain).
check: lint race race-matrix fuzz-smoke purego bench-smoke trial-smoke shard-smoke check-service
	$(GO) build -o /dev/null ./cmd/benchjson

# Service smoke gate: builds mpd + mpload, boots the daemon on a
# random port with chaos armed, and asserts the degradation ladder,
# typed errors, and SIGTERM drain from outside the process.
check-service:
	bash ./scripts/check_service.sh

# Trial smoke gate: an auto plan's build-time trial (serial vs chunked
# on the plan's own labels) prints its record with a serial or chunked
# pick inside its time budget, and its answer is byte-identical to the
# named engines'.
trial-smoke:
	bash ./scripts/check_trial.sh

# Sharded-backend smoke gate: bit-identical parity against serial at
# S ∈ {1, 2, 7}, and the carry exchange's measured round count equals
# ⌈log₂S⌉.
shard-smoke:
	bash ./scripts/check_shard.sh

# Full-scale reproduction gate: the paper-scale report must match the
# committed experiments_full.txt in every line but the wall times. It
# takes about 50 s, so it is not part of `make check`.
experiments-full:
	bash ./scripts/check_experiments.sh

bench:
	$(GO) test -bench . -benchtime 1x ./...

# One iteration of every benchmark in every package: compile + run
# smoke, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate the committed engine-performance snapshot.
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_engines.json

# Regenerate the committed service-performance snapshot: mpload boots a
# fresh in-process server per sample and measures QPS/latency, three
# samples a point, for the three traffic mixes over 4, 64 and 128 label
# vectors in cyclic order (the plan cache holds 64), on auto and serial.
bench-service:
	$(GO) run ./cmd/mpload -c 2 -dur 3s -seed 11 -mix reduce,multi,mixed -plans 4,64,128 -backend auto,serial -o BENCH_service.json
