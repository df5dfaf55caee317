#!/usr/bin/env bash
# CI floor for the repo, cheapest gates first:
#   1. build, vet, gofmt; the documentation floor (godoc coverage on the
#      exported API packages; docs tables name real identifiers and every
#      `sparbench -sweep X` names a registered sweep).
#   2. race-check the concurrency hot spots; fuzz the payload decoder,
#      quant.Unmarshal, the TCP frame reader, the two k-way merge kernels,
#      the two-way merge, the TopK selection scan, the dense-layer kernels
#      and the Chrome-trace decoder.
#   3. the wall-clock benchmark's quick run: all six workloads on the
#      goroutine and loopback-TCP backends, every op bit-checked against
#      the simulator, goroutine/fd leaks fail the run. It measures nothing
#      here (`go run ./bench` + bench/benchcmp do, see bench/README.md).
#   4. the pin ledger: every test that checks testdata/pins.json, uncached,
#      so a drifted digest shows first as a short list of
#      "name: old → new" lines.
#   5. the allocation budgets: every test that counts a hot path's
#      allocations against a fixed budget, uncached, one --- PASS/FAIL
#      line per budget with the counts it read beneath.
#   6. the full test suite — the acceptance invariants of BENCH_2/5/7/8
#      are tests against the committed files, so a drift that regresses
#      one fails twice.
#   7. record/replay: a recorded scenario trace replays to the live run's
#      row, Perfetto export and metrics dump byte for byte, and the pinned
#      lstm export matches its committed golden.
#   8. the sweep registry's drift gate: every committed BENCH_<n>.json is
#      re-recorded from the sweep registered under its id and must match
#      byte for byte (all simulated or allocation-count metrics,
#      deterministic; a drifted file is regenerated in place to commit).
#
# Usage: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== doccheck (exported symbols need doc comments)"
go run ./tools/doccheck . ./internal/simnet ./internal/comm ./internal/core ./internal/adapt ./internal/scenario ./internal/cluster ./internal/obs

echo "== docdrift (docs tables must name real identifiers, sparbench invocations real sweeps, BENCH_<n>.json references committed files)"
go run ./tools/docdrift -root . README.md docs/COLLECTIVES.md docs/ARCHITECTURE.md

echo "== go test -race (comm + core + adapt + stream + scenario + train + cluster + obs: real transports, payloads handed between truly concurrent ranks and their scratch pools, split-allgather partitions lent to every rank and taken back by their owners (TestSplitAllgatherLendingLifetime), parallel merge, lazy RNG streams, chunked pipelines + bucket scheduler, multi-tenant event loop, sharded metrics + concurrent span tracks, concurrent pin-ledger checks)"
go test -race ./internal/comm/... ./internal/core/... ./internal/adapt/... ./internal/stream/... ./internal/scenario/... ./internal/train/... ./internal/cluster/... ./internal/obs/... ./internal/pin
echo "== go test -race -run Adapt . (the facade's EnableAdaptation installs the send hook the link calibrators fold under)"
go test -race -run 'Adapt' .

echo "== fuzz the payload decoder (frames off a socket: never panics, never allocates past the frame, decode∘append round-trips; decoding through a pool of stale, wrongly sized storage gives the same value bit for bit or the same error, a rejected frame keeps none of the pool's buffers, an accepted one shares none with it)"
go test ./internal/comm -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime 10s | tail -n 4

echo "== fuzz quant.Unmarshal (the block inside those frames: never panics, holds no more than the buffer, re-marshals to itself, decodes as the reference decoder; UnmarshalInto a stale block of the wrong size gives the same value bit for bit or the same error and leaves a rejected block untouched)"
go test ./internal/quant -run '^$' -fuzz '^FuzzUnmarshal$' -fuzztime 10s | tail -n 4

echo "== fuzz the TCP frame reader (length prefix + message header through one reused body buffer: never panics, never holds more than twice the bytes supplied plus the first chunk, a well-formed stream reads back)"
go test ./internal/comm -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 5s | tail -n 4

echo "== fuzz the merge kernels (MergeK ≡ chained Add on packed and on strewn keys; windowed scatter ≡ heap pair for pair)"
go test ./internal/stream -run '^$' -fuzz '^FuzzMergeKEquivalence$' -fuzztime 5s | tail -n 4

echo "== fuzz the two-way merge (the branch-free kernel behind Add/AddInto ≡ the branchy reference, bit for bit and length for length: every Op, cancellation, infinities, NaN, denormals, empty, one-sided, disjoint and identical supports)"
go test ./internal/stream -run '^$' -fuzz '^FuzzTwoWayMergeEquivalence$' -fuzztime 5s | tail -n 4

echo "== fuzz TopK selection (the per-bucket insertion scan picks what the reference Select picks: ties, signed zeros, infinities, denormals, any k and bucket width)"
go test ./internal/topk -run '^$' -fuzz '^FuzzSelectEquivalence$' -fuzztime 5s | tail -n 4

echo "== fuzz the dense-layer kernels (four-row Forward and output-major Backward ≡ the one-row, sample-major reference bit for bit: any widths and batch, signed zeros, infinities, NaN, denormals)"
go test ./internal/nn -run '^$' -fuzz '^FuzzDenseKernelEquivalence$' -fuzztime 5s | tail -n 4

echo "== fuzz the Chrome-trace decoder (trace files off a disk: never panics, an accepted document re-encodes to JSON that decodes back to itself)"
go test ./internal/obs -run '^$' -fuzz '^FuzzDecodeChromeTrace$' -fuzztime 5s | tail -n 4

echo "== bench -quick (six workloads on goroutine + loopback TCP, every op checked, leaks fail)"
go run ./bench -quick > /dev/null

echo "== pin ledger (every test that checks testdata/pins.json, uncached; a drifted entry prints as 'name: old → new')"
# -short skips only the registry sweeps no pin covers (experiments' pinned()).
go test -count=1 -short -run '^(TestPredictDigests|TestSparseAllgatherPinned|TestQuantizedResultDigests|TestCrossTransportEquivalence|TestCrossTransportRaggedLevels|TestExtractDigests|TestAddAllDigests|TestGoldenDigests|TestEncodeMarshalDigests|TestResidualMLPDigest|TestExchangeDigests|TestAdaptDecisionDigests|TestRegistryEntriesRunAndRender|TestLedgerIsCanonical)$' ./internal/...

echo "== allocation budgets (uncached; a regression prints as its own '--- FAIL' line, each budget's counts beneath it)"
go test -count=1 -v -run '^(TestSplitAllgatherAllocationBudget|TestReleasedResultsAreReused|TestGoroutinePoolsReachSteadyState|TestTCPFramesAreReused|TestTCPSteadyStateAllocations|TestRecDoubleAgreementAllocations|TestBucketedStepSteadyState|TestChooseAutoLevelsDoesNotAllocate)$' \
  ./internal/comm ./internal/core ./internal/train | grep -E '^(--- |ok|FAIL|    [a-z_]+_test\.go:[0-9]+: )'

echo "== go test ./..."
go test ./...

echo "== bench smoke (the ablation benchmarks the BENCH_3/5/7 notes cite, 1 iteration each)"
go test -run '^$' -bench 'BenchmarkAblationKWayMerge|BenchmarkAblationScratchAllreduce|BenchmarkAblationSketchOverhead' -benchtime 1x . > /dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/sparbench" ./cmd/sparbench
go build -o "$tmp/sparreplay" ./cmd/sparreplay

# same <what> <a> <b>: the two files must be byte-identical.
same() {
  if ! cmp -s "$2" "$3"; then
    echo "$1:" >&2
    diff "$2" "$3" >&2 || true
    exit 1
  fi
}

echo "== replay determinism (record a scenario trace; row, Perfetto export and metrics of the replay must equal the live run's)"
"$tmp/sparreplay" -record -scenario clustered -out "$tmp/t.trace"
"$tmp/sparreplay" -scenario clustered -json -obs "$tmp/live_obs.json" -obsmetrics "$tmp/live_obs.txt" > "$tmp/live.json"
"$tmp/sparreplay" -replay "$tmp/t.trace" -json -obs "$tmp/replay_obs.json" -obsmetrics "$tmp/replay_obs.txt" > "$tmp/replay.json"
same "replaying the recorded trace diverged from the live run" "$tmp/live.json" "$tmp/replay.json"
same "replaying the recorded trace produced a different observability timeline" "$tmp/live_obs.json" "$tmp/replay_obs.json"
same "replaying the recorded trace produced a different metrics dump" "$tmp/live_obs.txt" "$tmp/replay_obs.txt"
"$tmp/sparreplay" -scenario lstm -obs "$tmp/lstm_obs.json" > /dev/null
same "the lstm Perfetto export drifted from the committed golden (regenerate with go test ./internal/experiments -run TestGoldenObsExport -update)" \
  "$tmp/lstm_obs.json" internal/experiments/testdata/obs_lstm_golden.json

for doc in BENCH_[0-9]*.json; do
  echo "== record $doc (sparbench -sweep ${doc%.json} -json)"
  "$tmp/sparbench" -sweep "${doc%.json}" -json > "$tmp/$doc"
  if ! cmp -s "$tmp/$doc" "$doc"; then
    cp "$tmp/$doc" "$doc"
    echo "$doc drifted from the committed sweep — regenerated it; commit the update" >&2
    exit 1
  fi
done

echo "CI green."
