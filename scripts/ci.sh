#!/usr/bin/env bash
# The full local CI gate: formatting, clippy, the static-analysis gate,
# and the test suite. Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> athena-lint (whole-workspace analysis gate, < 60 s)"
# Build outside the timer: the gate bounds analysis time, not compile
# time. The JSON report is archived next to BENCH_parallel.json.
cargo build -q --release --offline -p athena-analyze --bin athena-lint
analysis_start=$(date +%s)
./target/release/athena-lint --root . --json target/analysis-report.json
analysis_elapsed=$(( $(date +%s) - analysis_start ))
echo "    analysis gate finished in ${analysis_elapsed}s (bound: 60 s)"
[ "$analysis_elapsed" -lt 60 ]
test -s target/analysis-report.json

echo "==> analysis violation corpus (each rule fires exactly once)"
cargo test -q -p athena-analyze --offline --test corpus

# ATHENA_CHAOS_SMOKE=1 keeps the chaos matrix on the light workload in
# CI (the full scenario matrix still runs — no scenario is skipped).
echo "==> cargo test (chaos smoke workload)"
ATHENA_CHAOS_SMOKE=1 cargo test -q --workspace --offline

echo "==> chaos matrix gate (every scenario x both detectors, < 60 s)"
chaos_start=$(date +%s)
ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_failures
chaos_elapsed=$(( $(date +%s) - chaos_start ))
echo "    chaos matrix finished in ${chaos_elapsed}s (bound: 60 s)"
[ "$chaos_elapsed" -lt 60 ]

echo "==> recovery gate (kill mid-run, recover from disk, diff verdicts, < 60 s)"
recovery_start=$(date +%s)
ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_recovery
recovery_elapsed=$(( $(date +%s) - recovery_start ))
echo "    recovery gate finished in ${recovery_elapsed}s (bound: 60 s)"
[ "$recovery_elapsed" -lt 60 ]

echo "==> persistence corruption property tests (bit flips never panic)"
cargo test -q -p athena-persist --offline --test proptest_persist

echo "==> openflow codec property tests (round-trip + decode-never-panics)"
cargo test -q -p athena-openflow --offline --test proptest_codec

echo "==> telemetry overhead microbench (smoke mode)"
ATHENA_BENCH_SMOKE=1 cargo bench -q -p athena-telemetry --offline --bench overhead

echo "==> telemetry report artifact (target/telemetry-report.json)"
ATHENA_TELEMETRY_REPORT=target/telemetry-report.json \
    cargo test -q --offline --test e2e_scalability \
    results_are_invariant_to_cluster_size_and_time_decreases
test -s target/telemetry-report.json

echo "==> parallel smoke gate (worker-count determinism + lock sentinel + speedup table, < 60 s)"
# Build the bench binary outside the timer: the gate bounds runtime, not
# compile time. ATHENA_LOCK_SENTINEL=1 makes every tracked acquisition
# record its order edges, cross-checked against [analyze] lock_order.
cargo build -q --release --offline -p athena-bench --bin table_parallel
parallel_start=$(date +%s)
ATHENA_LOCK_SENTINEL=1 ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_determinism
ATHENA_BENCH_SMOKE=1 ATHENA_PARALLEL_JSON=target/BENCH_parallel.json \
    ./target/release/table_parallel
parallel_elapsed=$(( $(date +%s) - parallel_start ))
echo "    parallel gate finished in ${parallel_elapsed}s (bound: 60 s)"
[ "$parallel_elapsed" -lt 60 ]
test -s target/BENCH_parallel.json

echo "==> observe gate (chaos-alert round trip + causal traces + overhead sweep, < 60 s)"
# Build the bench binary outside the timer, as above. The e2e writes
# target/chrome-trace.json and target/observe-report.json; athena_top
# rewrites the report and adds the per-width overhead sweep.
cargo build -q --release --offline -p athena-bench --bin athena_top
observe_start=$(date +%s)
ATHENA_CHAOS_SMOKE=1 cargo test -q --release --offline --test e2e_observe
ATHENA_BENCH_SMOKE=1 ATHENA_OBS_JSON=target/BENCH_obs.json ./target/release/athena_top
observe_elapsed=$(( $(date +%s) - observe_start ))
echo "    observe gate finished in ${observe_elapsed}s (bound: 60 s)"
[ "$observe_elapsed" -lt 60 ]
test -s target/chrome-trace.json
test -s target/observe-report.json
test -s target/BENCH_obs.json

echo "==> Table-IV matrix gate (every attack x algorithm cell + baselines, < 60 s)"
# Build the matrix binary outside the timer, as above. Smoke mode halves
# the workloads but never skips a cell; the recorded baselines hold at
# both scales. The JSON artifact is archived like BENCH_parallel.json.
cargo build -q --release --offline -p athena-bench --bin table_matrix
matrix_start=$(date +%s)
ATHENA_CHAOS_SMOKE=1 ATHENA_MATRIX_JSON=target/BENCH_matrix.json \
    ./target/release/table_matrix
matrix_elapsed=$(( $(date +%s) - matrix_start ))
echo "    matrix gate finished in ${matrix_elapsed}s (bound: 60 s)"
[ "$matrix_elapsed" -lt 60 ]
test -s target/BENCH_matrix.json

echo "==> streaming gate (hot-swap e2e + online-vs-batch table, < 60 s)"
# Build the bench binary outside the timer, as above. The e2e drives a
# live retrain + hot-swap under ddos_flood, asserts the ≤ 15 virtual-s
# detection-continuity bound, and re-runs composed with the
# controller-crash chaos scenario; table_stream writes the archived
# online-vs-batch comparison artifact.
cargo build -q --release --offline -p athena-bench --bin table_stream
stream_start=$(date +%s)
ATHENA_CHAOS_SMOKE=1 cargo test -q --release --offline --test e2e_stream
ATHENA_CHAOS_SMOKE=1 ATHENA_STREAM_JSON=target/BENCH_stream.json \
    ./target/release/table_stream
stream_elapsed=$(( $(date +%s) - stream_start ))
echo "    streaming gate finished in ${stream_elapsed}s (bound: 60 s)"
[ "$stream_elapsed" -lt 60 ]
test -s target/BENCH_stream.json

echo "CI gate passed."
